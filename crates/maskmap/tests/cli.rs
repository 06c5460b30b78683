//! A contradictory `restore-maskmap` command line exits 2 with the usage
//! line before any map is built: a repeated flag (the second value would
//! silently win) and `--census` beside the AVF report's `--avf` or
//! `--json` (the census writes no report, so either would be dropped).

use std::path::Path;
use std::process::Command;

#[test]
fn contradictory_command_lines_exit_2_with_the_usage_line() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("maskmap-cli-census.json");
    let _ = std::fs::remove_file(&json);
    let json_arg = json.to_str().expect("utf-8 temp path");
    let smoke = ["--scale", "smoke", "--warmup", "500", "--window", "1500"];
    let cases: [&[&str]; 3] = [
        &["--workload", "mcfx", "--workload", "gzipx", "--census"],
        &["--census", "--json", json_arg],
        &["--census", "--avf"],
    ];
    for case in cases {
        let args = [&smoke[..], case].concat();
        let out = Command::new(env!("CARGO_BIN_EXE_restore-maskmap"))
            .args(&args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("\nusage: "), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(!json.exists(), "{args:?} wrote {}", json.display());
    }
}
