//! Smoke test of the benchmark itself: every workload at tiny shapes, with
//! tracing off and on, every correctness gate exercised, and one forced
//! gate failure that must come out as failed operations and a non-zero
//! exit code.

use std::path::PathBuf;
use std::process::Command;

use perfbench::{run, Options, Report, Scale, Workload};

fn opts(w: Workload, trace: bool, tag: &str) -> Options {
    Options {
        workload: w,
        seed: 11,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}")),
        force_gate_failure: false,
    }
}

/// Metric names of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.clone()).collect()
}

fn value(r: &Report, name: &str) -> f64 {
    r.metric(name).unwrap_or_else(|| panic!("{name} missing"))
}

/// Per-layer checks that hold at any size.
fn check_layers(w: Workload, traced: &Report) {
    assert_eq!(names(traced), declared("per_layer"));
    let trace = std::fs::read_to_string(traced.trace_file.as_ref().expect("trace written"))
        .expect("trace readable");
    assert!(trace.starts_with('{') && trace.contains("\"name\":\"model.forward\""));
    assert!(value(traced, "model.forward_ms_p50") > 0.0);
    assert!(value(traced, "model.optim_ms_p50") > 0.0);
    assert!(value(traced, "host.ref_loop_ms") > 0.0);

    let per_step = |op: &str| value(traced, &format!("collectives.{op}_per_step"));
    match w {
        Workload::MaeHyperFlatW1 => {
            assert_eq!(per_step("all_gather") + per_step("all_reduce"), 0.0);
            assert_eq!(value(traced, "tensor.peak_mem_mb.rank1"), 0.0);
        }
        Workload::MaeHyperDchagW2 => {
            assert!(per_step("all_gather") > 0.0 && per_step("all_reduce") > 0.0);
            assert_eq!(per_step("reduce_scatter"), 0.0);
        }
        Workload::ClimaxFsdpTcpW2 => {
            assert!(per_step("all_gather") > 0.0 && per_step("reduce_scatter") > 0.0);
            assert!(value(traced, "collectives.wire_mb_per_step") > 0.0);
            assert!(value(traced, "parallel.sharded_grads_ms_p50") > 0.0);
            assert!(value(traced, "checkpoint.restore_ms") > 0.0);
            assert!(value(traced, "checkpoint.mb_per_save") > 0.0);
            assert_eq!(value(traced, "checkpoint.writer_errors"), 0.0);
            assert_eq!(value(traced, "collectives.transport_retries"), 0.0);
        }
    }
}

#[test]
fn workloads_pass_their_gates_with_and_without_tracing() {
    for w in [Workload::MaeHyperFlatW1, Workload::ClimaxFsdpTcpW2] {
        let plain = run(&opts(w, false, w.name()));
        assert!(
            plain.correct && plain.failed == 0,
            "{}: {:?}",
            w.name(),
            plain.notes
        );
        assert!(plain.attempted > 0);
        assert_eq!(names(&plain), declared("end_to_end"));
        for m in &plain.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
        // Traced runs alternate untraced and traced episodes; the gate that
        // their losses agree bitwise is part of `correct`.
        let traced = run(&opts(w, true, w.name()));
        assert!(
            traced.correct && traced.failed == 0,
            "{}: {:?}",
            w.name(),
            traced.notes
        );
        check_layers(w, &traced);
    }
}

/// Known defect, caught by the replicated-loss gate: `clip_global_norm` is
/// rank-local, so under D-CHAG tensor parallelism each rank scales the
/// gradients of its replicated parameters by a different factor whenever
/// clipping triggers, and the replicas drift apart. The benchmark shapes
/// never clip (gradient norm below 0.1 against a clip of 1.0); these tiny
/// shapes do (norm ≈1.2 at step 0, different on each rank). Once clipping
/// agrees across the TP group this test fails: move the workload into the
/// passing list above.
#[test]
fn tiny_dchag_run_exposes_rank_local_clipping() {
    let w = Workload::MaeHyperDchagW2;
    for trace in [false, true] {
        let r = run(&opts(w, trace, w.name()));
        assert!(!r.correct && r.failed == r.attempted, "{:?}", r.notes);
        // Every episode fails, and only the replicated-loss gate fires.
        let gate_notes: Vec<&String> = r
            .notes
            .iter()
            .filter(|n| n.starts_with("episode "))
            .collect();
        assert!(!gate_notes.is_empty(), "{:?}", r.notes);
        assert!(
            gate_notes.iter().all(|n| n.contains("rank 1 loss differs")),
            "{:?}",
            r.notes
        );
        if trace {
            check_layers(w, &r);
        }
    }
}

#[test]
fn forced_gate_failure_counts_failed_operations() {
    let mut o = opts(Workload::MaeHyperFlatW1, false, "forced");
    o.force_gate_failure = true;
    let r = run(&o);
    assert!(!r.correct);
    // Only the corrupted (last) episode fails; the first is the reference.
    assert!(r.failed > 0 && r.failed < r.attempted, "{r:?}");
    assert!(
        r.notes.iter().any(|n| n.contains("not finite")),
        "{:?}",
        r.notes
    );
    assert!(r.json().starts_with("{\"correct\": false,"));
}

#[test]
fn command_exits_non_zero_on_a_failed_gate() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-cli");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "--workload",
            "mae_hyper_flat_w1",
            "--seed",
            "3",
            "--seconds",
            "0",
        ];
        args.extend([
            "--trace",
            "0",
            "--scale",
            "tiny",
            "--out-dir",
            out_dir.to_str().unwrap(),
        ]);
        args.extend(extra);
        Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run binary")
    };
    let ok = run(&[]);
    assert!(ok.status.success());
    let last = String::from_utf8(ok.stdout)
        .unwrap()
        .lines()
        .last()
        .unwrap()
        .to_string();
    assert!(last.starts_with("{\"correct\": true,") && last.contains("\"setup_s\""));

    let bad = run(&["--force-gate-failure"]);
    assert_eq!(bad.status.code(), Some(1));
    let last = String::from_utf8(bad.stdout)
        .unwrap()
        .lines()
        .last()
        .unwrap()
        .to_string();
    assert!(last.starts_with("{\"correct\": false,"));

    let usage = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("run binary");
    assert_eq!(usage.status.code(), Some(2));
    assert!(usage.stdout.is_empty());
}
