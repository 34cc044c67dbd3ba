//! The reference checker: every served result line must equal, byte
//! for byte, the line a direct [`FleetEngine::run_resolved`] call
//! renders for the same template — with only the timing (`wall_ns`)
//! and the per-connection job number normalized.

use crate::corpus::{Corpus, Preamble};
use ptherm_fleet::{
    FleetEngine, FleetEngineBuilder, JobRecord, JobSpec, ParsedLine, RequestParser,
};
use ptherm_floorplan::Floorplan;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A template resolved the way a connection's parser resolves it.
pub struct Resolved {
    /// The parsed job.
    pub spec: JobSpec,
    /// The floorplan the job is bound to.
    pub plan: Arc<Floorplan>,
}

/// Parses every template through one [`RequestParser`] that has seen
/// the corpus preamble, exactly as a serving connection would.
///
/// # Panics
///
/// If the generator produced a line the protocol refuses — a bug in
/// the corpus, not in the service.
pub fn resolve(corpus: &Corpus) -> Vec<Resolved> {
    let mut parser = RequestParser::new();
    for line in &corpus.preamble {
        let text = match line {
            Preamble::Floorplan(text) => text,
            Preamble::Base(t) => &corpus.templates[*t],
        };
        parser.parse_line(text).expect("corpus preamble parses");
    }
    corpus
        .templates
        .iter()
        .map(|text| {
            // Named bases are already registered; re-parsing one would be
            // refused as a duplicate name, so resolve a nameless copy of
            // the same job (names never reach the result line).
            let text = strip_name(text);
            match parser.parse_line(&text).expect("corpus template parses") {
                ParsedLine::Job { spec, plan } => Resolved { spec: *spec, plan },
                other => panic!("template is not a job line: {other:?}"),
            }
        })
        .collect()
}

/// `text` without its `"name"` field (named delta bases are parsed
/// once per connection; a second parse would be a duplicate name).
pub fn strip_name(text: &str) -> String {
    match text.find(r#""name": ""#) {
        Some(start) => {
            let rest = &text[start + 9..];
            let end = rest.find(r#"", "#).map_or(rest.len(), |e| e + 3);
            format!("{}{}", &text[..start], &rest[end..])
        }
        None => text.to_string(),
    }
}

/// A fresh engine for references: one worker, caches large enough that
/// every artifact is built once.
pub fn reference_engine() -> FleetEngine {
    FleetEngineBuilder::new()
        .threads(1)
        .cache_capacity(4096)
        .build()
        .expect("valid reference configuration")
}

/// Each template's reference [`digest`] plus the record it came from,
/// computed on `threads` scoped threads over one shared engine.
pub fn references(
    engine: &FleetEngine,
    resolved: &[Resolved],
    wanted: &[bool],
    threads: usize,
) -> Vec<Option<(u64, JobRecord)>> {
    let mut out: Vec<Option<(u64, JobRecord)>> = (0..resolved.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if t >= resolved.len() {
                    return;
                }
                if !wanted[t] {
                    continue;
                }
                let r = &resolved[t];
                let record = engine.run_resolved(&r.spec, &r.plan, 0);
                let line = digest(&record.to_json(&r.spec).render());
                results
                    .lock()
                    .expect("no reference thread panicked")
                    .push((t, line, record));
            });
        }
    });
    for (t, line, record) in results.into_inner().expect("no reference thread panicked") {
        out[t] = Some((line, record));
    }
    out
}

/// The job number a result or refusal line carries, if any.
pub fn job_number(line: &str) -> Option<usize> {
    let rest = line.strip_prefix(r#"{"job":"#)?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The `wall_ns` a result line carries, if any.
pub fn wall_ns(line: &str) -> Option<u64> {
    let start = line.rfind(r#""wall_ns":"#)? + 10;
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// `line` with its job number set to 0 and its `wall_ns` to 0 — the
/// only fields allowed to differ between a served line and its
/// reference.
pub fn normalize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    if let Some(after) = rest.strip_prefix(r#"{"job":"#) {
        out.push_str(r#"{"job":0"#);
        rest = after.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    match rest.rfind(r#""wall_ns":"#) {
        Some(at) => {
            let value = &rest[at + 10..];
            out.push_str(&rest[..at + 10]);
            out.push('0');
            out.push_str(value.trim_start_matches(|c: char| c.is_ascii_digit()));
        }
        None => out.push_str(rest),
    }
    out
}

/// A 64-bit digest of the normalized line: equal lines give equal
/// digests, and any changed byte outside the normalized fields changes
/// it (up to a 2^-64 collision chance).
pub fn digest(line: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    normalize(line).hash(&mut hasher);
    hasher.finish()
}
