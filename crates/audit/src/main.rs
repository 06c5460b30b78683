//! `restore-audit` CLI.
//!
//! ```text
//! restore-audit [--digests] [--census] [--contract] [--json]
//! ```
//!
//! At least one mode flag is required; with none, the usage line is
//! printed and the exit status is 2. That every field of a state walk
//! is visited or excluded with a reason is checked by the compiler:
//! each walk destructures its struct exhaustively.
//!
//! * `--digests`: run the per-field perturbation battery against the
//!   default µarch and arch campaign configs; exit 1 if perturbing a
//!   shaped field leaves the campaign digest unchanged, perturbing a
//!   neutral field changes it, or a declared field has no
//!   perturbation. That every field is classified at all is checked by
//!   the compiler: the digest bodies destructure every field.
//! * `--contract`: run the runtime invariant battery against a warmed
//!   default-config pipeline and the architectural CPU; exit 1 on any
//!   violation, a declared width outside its visit method's limit
//!   included.
//! * `--census`: print the per-region bit census of both machines.
//! * `--json`: machine-readable output for `--digests`/`--census`.
//!
//! The determinism rules are clippy's, not this binary's: see the
//! repository's `clippy.toml`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use restore_audit::battery::default_batteries;
use restore_audit::contract::check_contract;
use restore_audit::{cpu_census, pipeline_census};
use restore_uarch::{Pipeline, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

struct Options {
    digests: bool,
    census: bool,
    contract: bool,
    json: bool,
}

fn usage() -> ! {
    eprintln!("usage: restore-audit [--digests] [--census] [--contract] [--json]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options { digests: false, census: false, contract: false, json: false };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--digests" => opts.digests = true,
            "--census" => opts.census = true,
            "--contract" => opts.contract = true,
            "--json" => opts.json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if !opts.digests && !opts.census && !opts.contract {
        usage();
    }
    opts
}

fn run_digests(json: bool) -> bool {
    let batteries = default_batteries();
    let clean = batteries.iter().all(restore_audit::BatteryReport::is_clean);
    if json {
        let mut out = String::from("{\"structs\":[");
        for (i, b) in batteries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"shaped\":{},\"neutral\":{},\"base_digest\":\"{:#018x}\",\
                 \"checked\":{},\"failures\":{}}}",
                b.type_name,
                b.shaped_fields.len(),
                b.neutral_fields.len(),
                b.base_digest,
                b.checked,
                b.failures.len(),
            ));
        }
        out.push_str(&format!("],\"clean\":{clean}}}"));
        println!("{out}");
    } else {
        for b in &batteries {
            for fail in &b.failures {
                println!("error[battery]: {fail}");
            }
            println!(
                "digest-battery {}: base {:#018x}, {} perturbations ({} shaped, {} neutral \
                 fields): {}",
                b.type_name,
                b.base_digest,
                b.checked,
                b.shaped_fields.len(),
                b.neutral_fields.len(),
                if b.is_clean() { "contract holds" } else { "VIOLATIONS" },
            );
        }
        let errors: usize = batteries.iter().map(|b| b.failures.len()).sum();
        println!(
            "restore-audit: {} digest batteries: {}",
            batteries.len(),
            if clean { "digest coverage clean".to_string() } else { format!("{errors} error(s)") },
        );
    }
    clean
}

fn run_contract() -> bool {
    let program = WorkloadId::Vortexx.build(Scale { size: 32, seed: 7 });
    let mut ok = true;

    let mut pipe = Pipeline::new(UarchConfig::default(), &program);
    for _ in 0..500 {
        pipe.cycle();
    }
    let report = check_contract(&mut pipe, 64);
    println!(
        "uarch-pipeline: {} bits, {} regions, {} fields, {} flips sampled: {}",
        report.total_bits,
        report.regions,
        report.fields,
        report.flips_checked,
        if report.is_ok() { "contract holds" } else { "VIOLATIONS" },
    );
    for v in &report.violations {
        println!("  {v}");
        ok = false;
    }

    let mut cpu = restore_arch::Cpu::new(&program);
    for _ in 0..500 {
        if cpu.is_halted() || cpu.step().is_err() {
            break;
        }
    }
    let report = check_contract(&mut cpu, 64);
    println!(
        "arch-cpu: {} bits, {} regions, {} fields, {} flips sampled: {}",
        report.total_bits,
        report.regions,
        report.fields,
        report.flips_checked,
        if report.is_ok() { "contract holds" } else { "VIOLATIONS" },
    );
    for v in &report.violations {
        println!("  {v}");
        ok = false;
    }
    ok
}

fn run_census(json: bool) {
    let pipe = pipeline_census();
    let cpu = cpu_census();
    if json {
        println!("{{\"machines\":[{},{}]}}", pipe.to_json(), cpu.to_json());
    } else {
        print!("{}", pipe.to_table());
        print!("{}", cpu.to_table());
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut ok = true;
    if opts.digests {
        ok &= run_digests(opts.json);
    }
    if opts.contract {
        ok &= run_contract();
    }
    if opts.census {
        run_census(opts.json);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
