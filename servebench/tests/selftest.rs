//! The benchmark's own checks: seeded corpora are deterministic, every
//! metric is well named and registered in `BENCHMARK.json`, and the
//! reference checker catches a wrong answer.

use ptherm_fleet::Json;
use servebench::check;
use servebench::corpus::{Corpus, Workload};
use servebench::report::{valid_name, END_TO_END, PER_LAYER};

#[test]
fn the_same_seed_gives_the_same_bytes_and_another_seed_does_not() {
    for workload in Workload::ALL {
        let a = Corpus::generate(workload).transcript(7, 5.0, 500);
        let b = Corpus::generate(workload).transcript(7, 5.0, 500);
        let c = Corpus::generate(workload).transcript(8, 5.0, 500);
        assert_eq!(a, b, "{} is not deterministic", workload.name());
        assert_ne!(a, c, "{} ignores its seed", workload.name());
    }
}

#[test]
fn every_template_parses_as_a_job_on_a_serving_connection() {
    for workload in Workload::ALL {
        let corpus = Corpus::generate(workload);
        assert_eq!(check::resolve(&corpus).len(), corpus.templates.len());
    }
}

#[test]
fn phase_lines_follow_the_template_weights() {
    let corpus = Corpus::generate(Workload::HotDense);
    let lines = corpus.closed(5, 0, 4000);
    let total: f64 = corpus.weights.iter().sum();
    for (t, w) in corpus.weights.iter().enumerate() {
        let seen = lines.iter().filter(|&&x| x == t).count() as f64;
        let expected = w / total * lines.len() as f64;
        assert!(
            (seen - expected).abs() <= 2.0,
            "template {t}: {seen} lines, expected {expected}"
        );
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_metric_is_well_named_and_registered_in_benchmark_json() {
    let json = benchmark_json();
    for (key, registry) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = listed(&json, key);
        let emitted: Vec<(String, String)> = registry
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(
            declared, emitted,
            "{key} in BENCHMARK.json differs from the registry"
        );
        for (name, _) in &emitted {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
    }
    let workloads: Vec<String> = listed(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn the_checker_flags_a_perturbed_answer_and_ignores_only_timing_and_numbering() {
    let corpus = Corpus::generate(Workload::HotDense);
    let resolved = check::resolve(&corpus);
    // The first phase template (after the 16 delta bases) is a steady sweep.
    let t = corpus
        .weights
        .iter()
        .position(|&w| w > 0.0)
        .expect("a phase template");
    let mut wanted = vec![false; resolved.len()];
    wanted[t] = true;
    let references = check::references(&check::reference_engine(), &resolved, &wanted, 1);
    let (reference, record) = references[t].as_ref().expect("reference computed");
    let line = record.to_json(&resolved[t].spec).render();

    // Another job number and another wall time are the same answer.
    let renumbered = line.replacen(r#"{"job":0,"#, r#"{"job":41,"#, 1);
    let retimed = match line.rfind(r#""wall_ns":"#) {
        Some(at) => format!(r#"{}"wall_ns":987654321}}"#, &line[..at]),
        None => panic!("result line without wall_ns: {line}"),
    };
    assert_eq!(check::digest(&renumbered), *reference);
    assert_eq!(check::digest(&retimed), *reference);

    // Any other changed byte is a wrong answer.
    let at = line
        .find(r#""max_peak_k":"#)
        .expect("steady line has a peak")
        + 14;
    let digit = line.as_bytes()[at + 1];
    let flipped = if digit == b'9' {
        '8'
    } else {
        (digit + 1) as char
    };
    let perturbed = format!("{}{}{}", &line[..at + 1], flipped, &line[at + 2..]);
    assert_ne!(perturbed, line);
    assert_ne!(check::digest(&perturbed), *reference);
    let error = line.replacen(r#""ok":true"#, r#""ok":false"#, 1);
    assert_ne!(check::digest(&error), *reference);
}

#[test]
fn normalization_touches_only_job_number_and_wall_time() {
    let line = r#"{"job":12,"kind":"steady","floorplan":"h0","ok":true,"runs":4,"max_peak_k":301.5,"wall_ns":123456}"#;
    assert_eq!(
        check::normalize(line),
        r#"{"job":0,"kind":"steady","floorplan":"h0","ok":true,"runs":4,"max_peak_k":301.5,"wall_ns":0}"#
    );
    assert_eq!(check::job_number(line), Some(12));
    assert_eq!(check::wall_ns(line), Some(123456));
}
