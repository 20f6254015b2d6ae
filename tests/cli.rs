//! End-to-end test of the `mbr-compose` CLI: generate a design, write its
//! files, run the binary, re-parse the output.

use std::process::Command;

use mbr::liberty::{standard_library, Library};
use mbr::netlist::Design;
use mbr::workloads::DesignSpec;

fn spec() -> DesignSpec {
    DesignSpec {
        name: "cli_test".into(),
        seed: 11,
        cluster_grid: 2,
        groups_per_cluster: 6,
        regs_per_group: 3..=5,
        width_mix: [0.5, 0.25, 0.15, 0.1],
        fixed_fraction: 0.1,
        scan_fraction: 0.2,
        ordered_scan_fraction: 0.2,
        extra_buffer_depth: 3,
        utilization: 0.4,
        clock_period: 500.0,
        clock_domains: 1,
        wire_scale: 1.0,
    }
}

#[test]
fn cli_composes_and_round_trips() {
    let lib = standard_library();
    let design = spec().generate(&lib);
    let regs_before = design.live_register_count();

    let dir = std::env::temp_dir().join("mbr_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let lib_path = dir.join("cells.mbrlib");
    let in_path = dir.join("in.design");
    let out_path = dir.join("out.design");
    std::fs::write(&lib_path, lib.to_mbrlib()).expect("write lib");
    std::fs::write(&in_path, design.to_design_text(&lib)).expect("write design");

    let output = Command::new(env!("CARGO_BIN_EXE_mbr-compose"))
        .args([
            "--lib",
            lib_path.to_str().expect("utf8"),
            "--design",
            in_path.to_str().expect("utf8"),
            "--out",
            out_path.to_str().expect("utf8"),
            "--period",
            "500",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("merges"), "report printed: {stdout}");

    // The composed file parses and has fewer registers.
    let composed_text = std::fs::read_to_string(&out_path).expect("output exists");
    let relib = Library::parse(&lib.to_mbrlib()).expect("lib round-trips");
    let composed = Design::parse(&composed_text, &relib).expect("output parses");
    assert!(composed.live_register_count() < regs_before);
    assert!(composed.validate().is_empty());
}

#[test]
fn cli_rejects_bad_input_with_nonzero_exit() {
    let dir = std::env::temp_dir().join("mbr_cli_test_bad");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.mbrlib");
    std::fs::write(&bad, "library \"x\" { cell C }").expect("write");
    let output = Command::new(env!("CARGO_BIN_EXE_mbr-compose"))
        .args([
            "--lib",
            bad.to_str().expect("utf8"),
            "--design",
            bad.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("parse error"), "stderr: {stderr}");
}

#[test]
fn cli_usage_on_missing_arguments() {
    let output = Command::new(env!("CARGO_BIN_EXE_mbr-compose"))
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));
}

#[test]
fn cli_rejects_out_of_range_numbers_before_reading_the_design() {
    let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/assets");
    let lib = format!("{assets}/sample.mbrlib");
    let design = format!("{assets}/sample.design");
    for (flag, value) in [
        ("--partition-bound", "0"),
        ("--partition-bound", "100"),
        ("--region-radius", "-100000"),
        ("--period", "nan"),
        ("--period", "inf"),
        ("--period", "-100"),
        ("--period", "0"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_mbr-compose"))
            .args(["--lib", &lib, "--design", &design, flag, value])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flag} {value}: stderr: {stderr}"
        );
        assert!(
            stderr.contains(&format!("invalid {flag} `{value}`")) && stderr.contains("usage"),
            "{flag} {value}: stderr: {stderr}"
        );
        // Nothing was read or composed: the design banner never printed.
        assert!(output.stdout.is_empty(), "{flag} {value}: stdout not empty");
    }
}
