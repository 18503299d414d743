//! The `mcc` command line's file-facing subcommands, end to end: `run` writes a
//! checkpoint file durably (no temporary left behind), `inspect` describes
//! it, and `resume` finishes the program from it with the expected exit
//! value.  Each test works in a fresh temporary directory.

use mojave_core::{CheckpointStore, InMemorySink, MigrationImage, Process, ProcessConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after the epoch")
            .as_nanos();
        let dir =
            std::env::temp_dir().join(format!("mcc-cli-{name}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn files(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.0)
            .expect("list temp dir")
            .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn mcc(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcc"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("mcc runs")
}

/// Speculates, commits, checkpoints as `mid`, and exits with 42.
const PROGRAM: &str = r#"
int main() {
    int acc = 0;
    int id = speculate();
    if (id > 0) {
        commit(id);
        for (int i = 1; i <= 4; i = i + 1) { acc = acc + i * i; }
        checkpoint("mid");
        return acc + 12;
    }
    return 0;
}
"#;

#[test]
fn run_writes_a_durable_checkpoint_that_inspect_describes_and_resume_finishes() {
    let dir = TempDir::new("run");
    std::fs::write(dir.0.join("prog.mj"), PROGRAM).unwrap();

    let run = mcc(&dir.0, &["run", "prog.mj"]);
    assert_eq!(run.status.code(), Some(42), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    let bytes = std::fs::read(dir.0.join("mid.img")).expect("checkpoint written");
    assert!(
        stderr.contains(&format!("mcc: wrote mid.img ({} bytes)", bytes.len())),
        "{stderr}"
    );
    assert_eq!(dir.files(), ["mid.img", "prog.mj"], "no temporary left");
    let image = MigrationImage::from_bytes(&bytes).expect("checkpoint decodes");
    assert!(!image.heap_image.is_delta());

    let inspect = mcc(&dir.0, &["inspect", "mid.img"]);
    assert!(inspect.status.success(), "{inspect:?}");
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    assert!(
        stdout.contains(&format!("image size          : {} bytes", bytes.len())),
        "{stdout}"
    );
    assert!(stdout.contains("code                : FIR, "), "{stdout}");

    let resume = mcc(&dir.0, &["resume", "mid.img"]);
    assert_eq!(resume.status.code(), Some(42), "{resume:?}");

    // A second run replaces the image in place, atomically.
    let rerun = mcc(&dir.0, &["run", "prog.mj"]);
    assert_eq!(rerun.status.code(), Some(42), "{rerun:?}");
    assert_eq!(std::fs::read(dir.0.join("mid.img")).unwrap(), bytes);
    assert_eq!(dir.files(), ["mid.img", "prog.mj"]);
}

#[test]
fn inspect_names_the_base_of_a_by_reference_delta_and_resume_needs_it() {
    let program = mojave_lang::compile_source(
        r#"
        int main() {
            int[] xs = alloc_int(8);
            checkpoint("base");
            xs[0] = 5;
            checkpoint("next");
            return xs[0];
        }
        "#,
    )
    .unwrap();
    let store = CheckpointStore::new();
    let config = ProcessConfig {
        delta_checkpoints: true,
        ..ProcessConfig::default()
    };
    let mut process = Process::new(program, config)
        .unwrap()
        .with_sink(Box::new(InMemorySink::with_store(store.clone())));
    process.run().unwrap();
    let bytes = store.get("next").unwrap();
    let delta = MigrationImage::from_bytes(&bytes).unwrap();
    assert_eq!(delta.heap_image.base(), Some("base"));

    let dir = TempDir::new("inspect");
    std::fs::write(dir.0.join("next.img"), &bytes).unwrap();
    let inspect = mcc(&dir.0, &["inspect", "next.img"]);
    assert!(inspect.status.success(), "{inspect:?}");
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    let expected = format!(
        "code                : in base `base`, fingerprint {:#018x}",
        delta.code.fingerprint()
    );
    assert!(stdout.contains(&expected), "{stdout}");
    assert!(stdout.contains("(delta against `base`)"), "{stdout}");

    let resume = mcc(&dir.0, &["resume", "next.img"]);
    assert_eq!(resume.status.code(), Some(1), "{resume:?}");
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert!(
        stderr.contains("invalid image: ") && stderr.contains("needs its base checkpoint `base`"),
        "{stderr}"
    );
}
