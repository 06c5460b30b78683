//! A malformed command line exits 2 with the usage line before any
//! campaign runs: a stray word, a second value after a flag, a value
//! after a bare flag, a repeated flag, and a bad value on a path
//! (`fig8 --paper`) that runs no campaign.

use std::process::Command;

#[test]
fn malformed_command_lines_exit_2_with_the_usage_line() {
    let cases: [(&str, &[&str]); 7] = [
        (env!("CARGO_BIN_EXE_fig4"), &["--points", "1", "--trials", "1", "bogus"]),
        (env!("CARGO_BIN_EXE_fig4"), &["--points", "1", "--points", "2"]),
        (env!("CARGO_BIN_EXE_fig2"), &["--trials", "1", "--low32", "7"]),
        (env!("CARGO_BIN_EXE_fig2"), &["--low32", "--low32"]),
        (env!("CARGO_BIN_EXE_fig8"), &["--paper", "--points", "x"]),
        (
            env!("CARGO_BIN_EXE_figs_all"),
            &["--points", "1", "--trials", "1", "--arch-trials", "1", "16"],
        ),
        (
            env!("CARGO_BIN_EXE_restore-campaign"),
            &["--domain", "arch", "--trials", "1", "--store", "DIR", "extra"],
        ),
    ];
    for (exe, args) in cases {
        let out = Command::new(exe).args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {err}");
        assert!(err.contains("\nusage: "), "{exe} {args:?}: {err}");
        assert!(out.stdout.is_empty(), "{exe} {args:?} printed a table");
    }
}
