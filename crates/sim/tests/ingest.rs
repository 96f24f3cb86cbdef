//! File-source preparation: the out-of-core path is pinned
//! bit-identical to whole-file preparation, the absent-file fallback
//! reproduces the synthetic arm exactly, and corruption is a
//! structured error — never a silent fallback.

use poisongame_data::csv::to_csv;
use poisongame_data::synth::{spambase_like, SpambaseConfig};
use poisongame_data::DataError;
use poisongame_io::checksum_bytes;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::error::SimError;
use poisongame_sim::pipeline::{prepare, prepare_data, DataSource, ExperimentConfig};
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// A fresh temp directory for one test (process id + test name keeps
/// parallel test binaries apart).
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pg-ingest-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Synthetic Spambase-layout CSV on disk, plus its checksum.
fn write_dataset(test: &str, rows: usize) -> (PathBuf, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xD5);
    let data = spambase_like(
        &SpambaseConfig {
            rows,
            ..SpambaseConfig::default()
        },
        &mut rng,
    );
    let text = to_csv(&data);
    let path = temp_dir(test).join("spam.csv");
    std::fs::write(&path, &text).unwrap();
    (path, checksum_bytes(text.as_bytes()))
}

fn file_source(path: &Path, checksum: Option<u64>, chunk_rows: Option<usize>) -> DataSource {
    DataSource::File {
        path: path.display().to_string(),
        checksum,
        format: "spambase".to_string(),
        chunk_rows,
        max_inflight_chunks: Some(2),
    }
}

#[test]
fn chunked_preparation_is_bit_identical_to_whole_file() {
    let (path, sum) = write_dataset("bitident", 400);
    let whole = prepare_data(&file_source(&path, Some(sum), None), 20190607, 0.3).unwrap();
    // Chunk sizes that divide the row count, don't, and degenerate to
    // row-at-a-time — all must reproduce the whole-file bytes.
    for chunk_rows in [1, 64, 100, 117, 4096] {
        let chunked = prepare_data(
            &file_source(&path, Some(sum), Some(chunk_rows)),
            20190607,
            0.3,
        )
        .unwrap();
        assert_eq!(chunked.scaler, whole.scaler, "chunk_rows {chunk_rows}");
        assert_eq!(chunked.train.labels(), whole.train.labels());
        assert_eq!(chunked.test.labels(), whole.test.labels());
        for (split_c, split_w) in [(&chunked.train, &whole.train), (&chunked.test, &whole.test)] {
            for (a, b) in split_c
                .features()
                .as_slice()
                .iter()
                .zip(split_w.features().as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk_rows {chunk_rows}");
            }
        }
        assert_eq!(chunked.content_digest(), whole.content_digest());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_source_matches_csv_text_source() {
    // A present file preps exactly like the same bytes inlined as a
    // csv_text source: the file layer adds no arithmetic.
    let (path, sum) = write_dataset("csvtext", 300);
    let text = std::fs::read_to_string(&path).unwrap();
    let from_file = prepare_data(&file_source(&path, Some(sum), None), 7, 0.3).unwrap();
    let from_text = prepare_data(&DataSource::CsvText { text }, 7, 0.3).unwrap();
    assert_eq!(from_file, from_text);
    assert_eq!(from_file.content_digest(), from_text.content_digest());
    std::fs::remove_file(&path).ok();
}

#[test]
fn absent_file_falls_back_to_synthetic_exactly() {
    let missing = temp_dir("fallback").join("never-downloaded.csv");
    // Pinned checksum on an absent file is still a clean fallback —
    // there is nothing to validate, and CI must stay green offline.
    let fallback = prepare_data(&file_source(&missing, Some(42), None), 11, 0.3).unwrap();
    let synthetic = prepare_data(&DataSource::SyntheticSpambase { rows: 4601 }, 11, 0.3).unwrap();
    assert_eq!(fallback, synthetic);
    // The chunked knobs don't change the fallback either.
    let chunked = prepare_data(&file_source(&missing, None, Some(256)), 11, 0.3).unwrap();
    assert_eq!(chunked, synthetic);
}

#[test]
fn checksum_mismatch_is_an_error_not_a_fallback() {
    let (path, sum) = write_dataset("mismatch", 120);
    for chunk_rows in [None, Some(32)] {
        match prepare_data(&file_source(&path, Some(sum ^ 1), chunk_rows), 3, 0.3) {
            Err(SimError::Ingest(poisongame_io::IngestError::ChecksumMismatch {
                expected,
                actual,
                ..
            })) => {
                assert_eq!(expected, sum ^ 1);
                assert_eq!(actual, sum);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_rows_are_structured_errors() {
    let dir = temp_dir("corrupt");
    let path = dir.join("bad.csv");
    std::fs::write(&path, "1,2,1\n3,nope,0\n").unwrap();
    let source = DataSource::File {
        path: path.display().to_string(),
        checksum: None,
        format: "csv".to_string(),
        chunk_rows: Some(16),
        max_inflight_chunks: None,
    };
    match prepare_data(&source, 3, 0.3) {
        Err(SimError::Ingest(poisongame_io::IngestError::BadFloat { line: 2, .. })) => {}
        other => panic!("expected BadFloat at line 2, got {other:?}"),
    }
    // Truncated final row.
    std::fs::write(&path, "1,2,1\n3,4,0").unwrap();
    assert!(matches!(
        prepare_data(&source, 3, 0.3),
        Err(SimError::Ingest(
            poisongame_io::IngestError::UnterminatedRow { line: 2 }
        ))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn ragged_arity_change_at_chunk_boundary_is_bad_arity() {
    // Width flips exactly at a chunk boundary, so with the
    // width-inferring `csv` format every chunk in the parse wave is
    // internally consistent — only the cross-chunk width check can
    // catch the raggedness. Both directions must be a structured
    // error: a wider second chunk must not panic the scatter loop, a
    // narrower one must not scatter misaligned rows silently.
    let dir = temp_dir("ragged");
    let path = dir.join("ragged.csv");
    for (text, expected, found) in [
        ("1,2,1\n3,4,0\n1,2,3,1\n4,5,6,0\n", 3, 4),
        ("1,2,3,1\n4,5,6,0\n1,2,1\n3,4,0\n", 4, 3),
    ] {
        std::fs::write(&path, text).unwrap();
        let source = DataSource::File {
            path: path.display().to_string(),
            checksum: None,
            format: "csv".to_string(),
            chunk_rows: Some(2),
            max_inflight_chunks: Some(4),
        };
        match prepare_data(&source, 3, 0.3) {
            Err(SimError::Ingest(poisongame_io::IngestError::BadArity {
                line: 3,
                expected: e,
                found: f,
            })) => {
                assert_eq!((e, f), (expected, found), "{text:?}");
            }
            other => panic!("{text:?}: expected BadArity at line 3, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn degenerate_knobs_are_rejected() {
    let (path, _) = write_dataset("knobs", 40);
    assert!(matches!(
        prepare_data(&file_source(&path, None, Some(0)), 3, 0.3),
        Err(SimError::Ingest(poisongame_io::IngestError::ZeroChunkRows))
    ));
    let source = DataSource::File {
        path: path.display().to_string(),
        checksum: None,
        format: "spambase".to_string(),
        chunk_rows: Some(8),
        max_inflight_chunks: Some(0),
    };
    assert!(matches!(
        prepare_data(&source, 3, 0.3),
        Err(SimError::Ingest(
            poisongame_io::IngestError::ZeroInflightChunks
        ))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_source_json_round_trips() {
    use poisongame_sim::pipeline::ExperimentConfig;
    let (path, sum) = write_dataset("json", 40);
    let config = ExperimentConfig {
        source: file_source(&path, Some(sum), Some(128)),
        ..ExperimentConfig::paper()
    };
    let back = ExperimentConfig::from_json_str(&config.to_json_string()).unwrap();
    assert_eq!(back, config);
    // Optional fields default: no checksum, no chunking, spambase
    // format.
    let minimal = format!(
        r#"{{"source":{{"type":"file","path":"{0}"}}}}"#,
        "data/x.csv"
    );
    let parsed = ExperimentConfig::from_json_str(&minimal).unwrap();
    assert_eq!(
        parsed.source,
        DataSource::File {
            path: "data/x.csv".to_string(),
            checksum: None,
            format: "spambase".to_string(),
            chunk_rows: None,
            max_inflight_chunks: None,
        }
    );
    // Degenerate knobs and unknown formats die at parse time.
    for bad in [
        r#"{"source":{"type":"file","path":"x.csv","chunk_rows":0}}"#,
        r#"{"source":{"type":"file","path":"x.csv","max_inflight_chunks":0}}"#,
        r#"{"source":{"type":"file","path":"x.csv","format":"parquet"}}"#,
        r#"{"source":{"type":"file"}}"#,
    ] {
        assert!(
            matches!(ExperimentConfig::from_json_str(bad), Err(SimError::Spec(_))),
            "{bad}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn prep_key_ignores_chunking_knobs() {
    use poisongame_sim::engine::prep_key;
    let a = prep_key(
        &file_source(&PathBuf::from("data/spam.csv"), Some(9), None),
        1,
        0.3,
    );
    let b = prep_key(
        &file_source(&PathBuf::from("data/spam.csv"), Some(9), Some(512)),
        1,
        0.3,
    );
    // Chunked and whole-file produce bit-identical preparations, so
    // they must share a cache entry.
    assert_eq!(a, b);
    assert_eq!(a.content_hash(), b.content_hash());
    let other = prep_key(
        &file_source(&PathBuf::from("data/other.csv"), Some(9), None),
        1,
        0.3,
    );
    assert_ne!(a, other);
    let no_sum = prep_key(
        &file_source(&PathBuf::from("data/spam.csv"), None, None),
        1,
        0.3,
    );
    assert_ne!(a, no_sum);
}

/// 60 rows whose first column alternates ±1e308: every value is finite
/// and passes the parsers, but its running sum or its squared
/// deviations overflow.
fn overflowing_csv() -> String {
    (0..60)
        .map(|i| {
            let huge = if i % 2 == 0 { 1e308 } else { -1e308 };
            format!("{huge:e},{},{}\n", (i % 7) as f64 * 0.1, i % 2)
        })
        .collect()
}

#[test]
fn overflowing_column_is_a_structured_error_on_every_source() {
    // Before the scaler checked its statistics, this prepared NaN
    // features and the first boundary-attack cell panicked computing a
    // median of them.
    let text = overflowing_csv();
    let path = temp_dir("overflow").join("huge.csv");
    std::fs::write(&path, &text).unwrap();
    let sources = [
        DataSource::CsvText { text },
        DataSource::File {
            path: path.display().to_string(),
            checksum: None,
            format: "csv".to_string(),
            chunk_rows: None,
            max_inflight_chunks: None,
        },
        DataSource::File {
            path: path.display().to_string(),
            checksum: None,
            format: "csv".to_string(),
            chunk_rows: Some(16),
            max_inflight_chunks: Some(2),
        },
    ];
    for source in &sources {
        let config = ExperimentConfig {
            source: source.clone(),
            ..ExperimentConfig::paper()
        };
        match prepare(&config).map(|_| ()) {
            // Mean or std, depending on where the split put the rows.
            Err(SimError::Data(DataError::NonFiniteStatistic { column, .. })) => {
                assert_eq!(column, 0);
            }
            other => panic!("expected a non-finite statistic error, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}
