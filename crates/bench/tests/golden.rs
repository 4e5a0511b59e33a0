//! E1–E24 as a golden check: their output is deterministic and must match
//! `crates/bench/golden.txt` byte for byte. A change that moves a number
//! either is a bug or re-records the file and says why.
//!
//! Release only: in debug the run takes minutes.

use std::path::Path;
use std::process::Command;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs E1–E24; use `cargo test -p taureau-bench --release --test golden`"
)]
fn experiments_match_golden() {
    // The 22 ids of E1–E24: E13 and E14 are Criterion benches.
    let ids = (1..=24).filter(|n| !(13..=14).contains(n));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(ids.map(|n| format!("e{n}")))
        .output()
        .expect("run experiments");
    assert!(
        out.status.success(),
        "experiments e1 … e24 exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("utf-8 output");
    let golden = include_str!("../golden.txt");
    if actual == golden {
        return;
    }
    let target = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .expect("target dir");
    let dump = target.join("golden.actual");
    std::fs::write(&dump, &actual).expect("write golden.actual");
    let mut report = String::new();
    let (mut want, mut got) = (golden.lines(), actual.lines());
    let mut shown = 0;
    for line in 1.. {
        let (w, g) = (want.next(), got.next());
        if w.is_none() && g.is_none() {
            break;
        }
        if w != g {
            report.push_str(&format!(
                "line {line}:\n  golden: {}\n  actual: {}\n",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>")
            ));
            shown += 1;
            if shown == 10 {
                break;
            }
        }
    }
    panic!(
        "experiments e1 … e24 differs from crates/bench/golden.txt (full output in {}):\n{report}",
        dump.display()
    );
}
