//! The loadgen's op stream, pinned to the committed workloads: every
//! `workloads/*.cprlog` was recorded by `copred_loadgen` over one
//! connection with trace ids off, so rebuilding its stream with
//! `copred_replay::trace_log` from the log's own header (combo, seed,
//! queries, batch, mode — the parameters `workloads/README.md` lists)
//! must reproduce every recorded request byte for byte, session keys
//! included.

use copred_bench::{Combo, Scale};
use copred_replay::{read_log_file, trace_log};
use copred_service::protocol::SchedMode;
use std::path::PathBuf;

/// The value of `key=` in a `key=value ...` scale string.
fn scale_value<'a>(scale: &'a str, key: &str) -> &'a str {
    scale
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("scale {scale:?} has no {key}="))
}

#[test]
fn trace_log_rebuilds_every_committed_request() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads");
    let readme = std::fs::read_to_string(dir.join("README.md")).expect("workloads README");
    let mut logs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("workloads dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cprlog"))
        .collect();
    logs.sort();
    assert!(!logs.is_empty(), "no committed logs");
    for path in logs {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let committed = read_log_file(&path).expect("committed log parses");
        let meta = &committed.meta;
        let queries: usize = scale_value(&meta.scale, "queries").parse().unwrap();
        let batch: usize = scale_value(&meta.scale, "batch").parse().unwrap();
        let mode_label = scale_value(&meta.scale, "mode");
        let mode = SchedMode::parse(mode_label).expect("mode");
        assert_eq!(scale_value(&meta.scale, "connections"), "1", "{name}");

        // The header agrees with the README's regeneration table.
        let row = readme
            .lines()
            .find(|l| l.contains(&format!("`{name}`")))
            .unwrap_or_else(|| panic!("README lists no row for {name}"));
        let scale_cell = format!("queries={queries} connections=1 batch={batch}");
        for cell in [
            &meta.workload,
            mode_label,
            &scale_cell,
            &meta.seed.to_string(),
        ] {
            assert!(
                row.split('|').any(|c| c.trim() == cell),
                "{name}: README row {row:?} lacks {cell:?}"
            );
        }

        let combo = Combo::paper_six()
            .into_iter()
            .find(|c| c.label() == meta.workload)
            .unwrap_or_else(|| panic!("{name}: unknown combo {}", meta.workload));
        let scale = Scale {
            queries,
            ..Scale::quick()
        };
        let traces: Vec<_> =
            copred_bench::workloads::planner_traces_with_scenes(&combo, &scale, meta.seed)
                .into_iter()
                .map(|(t, _env)| t)
                .collect();
        let rebuilt = trace_log(&traces, mode, meta.seed, batch, None, false);
        assert_eq!(
            rebuilt.records.len(),
            committed.records.len(),
            "{name}: op count"
        );
        for (ours, theirs) in rebuilt.records.iter().zip(&committed.records) {
            assert_eq!(ours.session, theirs.session, "{name} op {}", theirs.idx);
            assert_eq!(ours.verb, theirs.verb, "{name} op {}", theirs.idx);
            assert!(
                ours.request == theirs.request,
                "{name} op {}: rebuilt request differs\n ours:   {:?}\n theirs: {:?}",
                theirs.idx,
                ours.request,
                theirs.request
            );
        }
    }
}
