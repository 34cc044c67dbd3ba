//! Cache persistence: save a restartable *manifest* of what the fleet's
//! operator caches hold, and warm a fresh engine's caches from one.
//!
//! The caches themselves are never serialized — a factored operator is
//! megabytes of floats whose bit pattern already falls out of a
//! deterministic build. What persists is the **recipe** each cache
//! entry records ([`CacheRecipe`]): the floorplan and the handful of
//! parameters that reproduce the entry, keyed by the fingerprint the
//! entry is cached under. This module owns only the manifest's JSON
//! format; [`OperatorCache`](crate::OperatorCache) owns the keys and
//! the rebuilds. [`warm`] replays the recipes through the ordinary
//! cache paths, so a restarted service reaches steady-state hit rates
//! before its first job — and a warmed operator is *bit-identical* to
//! the one the previous process held, because fingerprint equality
//! implies build equality (the cache's core invariant).
//!
//! A manifest lists exactly the entries the caches hold when it is
//! rendered: an entry evicted by the LRU policy (or a
//! [`Fault::EvictCaches`](crate::Fault::EvictCaches)) takes its recipe
//! with it.
//!
//! Staleness is handled structurally: every entry carries the
//! fingerprint it was recorded under, and the cache recomputes the
//! fingerprint from the manifest floorplan and the *warming* engine's
//! configuration before building anything. An entry recorded under
//! different image orders, a different tolerance or an edited
//! floorplan hashes differently and is skipped (counted in
//! [`WarmReport::skipped`]), never rebuilt wrong.
//!
//! Floats round-trip **exactly**: every `f64` in a manifest is stored
//! as the hex of its IEEE-754 bit pattern (`f64::to_bits`), not a
//! decimal rendering — so a floorplan's fingerprint after reload equals
//! its fingerprint before, and warm hits the same cache keys.

use crate::cache::{CacheRecipe, RecipeKind};
use crate::engine::FleetEngine;
use crate::json::Json;
use ptherm_floorplan::{Block, ChipGeometry, Floorplan};
use ptherm_math::ode::ImplicitScheme;
use std::sync::Arc;

/// Manifest schema version (bumped on any incompatible layout change;
/// [`warm`] refuses manifests it does not understand).
pub const MANIFEST_VERSION: u64 = 1;

/// What [`warm`] did with a manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmReport {
    /// Entries rebuilt into the cache (fingerprint matched after
    /// recomputation — the warmed operator is bit-identical to the one
    /// the saving process held).
    pub rebuilt: usize,
    /// Entries skipped as stale (fingerprint mismatch under the warming
    /// engine's configuration, unbuildable floorplan, or a malformed
    /// record).
    pub skipped: usize,
}

/// Errors loading a manifest (I/O aside): not JSON, or a layout this
/// version does not understand. Per-*entry* problems are not errors —
/// they count as [`WarmReport::skipped`].
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// The text was not valid JSON.
    Json(crate::json::JsonError),
    /// Parsed, but not a manifest object with a supported
    /// `"manifest_version"`.
    Schema(String),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "manifest is not valid JSON: {e}"),
            ManifestError::Schema(detail) => write!(f, "manifest schema error: {detail}"),
        }
    }
}

impl std::error::Error for ManifestError {}

fn hex_bits(x: f64) -> Json {
    Json::String(format!("{:016x}", x.to_bits()))
}

fn from_hex_bits(j: &Json) -> Option<f64> {
    let s = j.as_str()?;
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn hex_u64(x: u64) -> Json {
    Json::String(format!("{x:016x}"))
}

fn from_hex_u64(j: &Json) -> Option<u64> {
    u64::from_str_radix(j.as_str()?, 16).ok()
}

fn floorplan_to_json(plan: &Floorplan) -> Json {
    let g = plan.geometry();
    let geometry = Json::Object(vec![
        ("width".into(), hex_bits(g.width)),
        ("length".into(), hex_bits(g.length)),
        ("thickness".into(), hex_bits(g.thickness)),
        ("conductivity".into(), hex_bits(g.conductivity)),
        ("sink_temperature".into(), hex_bits(g.sink_temperature)),
    ]);
    let blocks = plan
        .blocks()
        .iter()
        .map(|b| {
            Json::Object(vec![
                ("name".into(), Json::String(b.name.clone())),
                ("cx".into(), hex_bits(b.cx)),
                ("cy".into(), hex_bits(b.cy)),
                ("w".into(), hex_bits(b.w)),
                ("l".into(), hex_bits(b.l)),
                ("power".into(), hex_bits(b.power)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("geometry".into(), geometry),
        ("blocks".into(), Json::Array(blocks)),
    ])
}

fn floorplan_from_json(j: &Json) -> Option<Floorplan> {
    let g = j.get("geometry")?;
    let geometry = ChipGeometry {
        width: from_hex_bits(g.get("width")?)?,
        length: from_hex_bits(g.get("length")?)?,
        thickness: from_hex_bits(g.get("thickness")?)?,
        conductivity: from_hex_bits(g.get("conductivity")?)?,
        sink_temperature: from_hex_bits(g.get("sink_temperature")?)?,
    };
    let mut blocks = Vec::new();
    for b in j.get("blocks")?.as_array()? {
        blocks.push(Block {
            name: b.get("name")?.as_str()?.to_string(),
            cx: from_hex_bits(b.get("cx")?)?,
            cy: from_hex_bits(b.get("cy")?)?,
            w: from_hex_bits(b.get("w")?)?,
            l: from_hex_bits(b.get("l")?)?,
            power: from_hex_bits(b.get("power")?)?,
        });
    }
    Floorplan::new(geometry, blocks).ok()
}

fn scheme_tag(scheme: ImplicitScheme) -> &'static str {
    match scheme {
        ImplicitScheme::Trapezoidal => "trapezoidal",
        ImplicitScheme::BackwardEuler => "backward_euler",
    }
}

fn scheme_from_tag(tag: &str) -> Option<ImplicitScheme> {
    match tag {
        "trapezoidal" => Some(ImplicitScheme::Trapezoidal),
        "backward_euler" => Some(ImplicitScheme::BackwardEuler),
        _ => None,
    }
}

/// One manifest entry: the `"kind"` tag, the fingerprint, the floorplan
/// and the kind-specific parameters, in that order.
fn entry_to_json(fingerprint: u64, recipe: &CacheRecipe) -> Json {
    let (tag, params) = match &recipe.kind {
        RecipeKind::Steady => ("steady", vec![]),
        RecipeKind::Spectral { tolerance } => {
            ("spectral", vec![("tolerance".into(), hex_bits(*tolerance))])
        }
        RecipeKind::Transient { dt_s, scheme } => (
            "transient",
            vec![
                ("dt_s".into(), hex_bits(*dt_s)),
                ("scheme".into(), Json::String(scheme_tag(*scheme).into())),
            ],
        ),
        RecipeKind::Map { nx, ny } => (
            "map",
            vec![
                ("nx".into(), Json::Number(*nx as f64)),
                ("ny".into(), Json::Number(*ny as f64)),
            ],
        ),
    };
    let mut fields = vec![
        ("kind".into(), Json::String(tag.into())),
        ("fingerprint".into(), hex_u64(fingerprint)),
        ("floorplan".into(), floorplan_to_json(&recipe.floorplan)),
    ];
    fields.extend(params);
    Json::Object(fields)
}

/// The recorded fingerprint and the recipe of one manifest entry, or
/// `None` for a malformed record.
fn entry_from_json(entry: &Json) -> Option<(u64, CacheRecipe)> {
    let fingerprint = from_hex_u64(entry.get("fingerprint")?)?;
    let floorplan = Arc::new(floorplan_from_json(entry.get("floorplan")?)?);
    let kind = match entry.get("kind")?.as_str()? {
        "steady" => RecipeKind::Steady,
        "spectral" => RecipeKind::Spectral {
            tolerance: from_hex_bits(entry.get("tolerance")?)?,
        },
        "transient" => RecipeKind::Transient {
            dt_s: from_hex_bits(entry.get("dt_s")?)?,
            scheme: scheme_from_tag(entry.get("scheme")?.as_str()?)?,
        },
        "map" => match (
            entry.get("nx").and_then(Json::as_usize),
            entry.get("ny").and_then(Json::as_usize),
        ) {
            (Some(nx), Some(ny)) if nx > 0 && ny > 0 => RecipeKind::Map { nx, ny },
            _ => return None,
        },
        _ => return None,
    };
    Some((fingerprint, CacheRecipe { floorplan, kind }))
}

/// Renders the recipes of every operator the engine's caches hold as a
/// manifest value.
///
/// Entries are fingerprint-ordered, so the manifest of a given cache
/// state is byte-stable regardless of job arrival order. An engine
/// whose caches hold no operator yields a valid empty manifest.
pub fn manifest(engine: &FleetEngine) -> Json {
    let entries = engine
        .cache()
        .recipes()
        .iter()
        .map(|(fingerprint, recipe)| entry_to_json(*fingerprint, recipe))
        .collect();
    Json::Object(vec![
        (
            "manifest_version".into(),
            Json::Number(MANIFEST_VERSION as f64),
        ),
        ("entries".into(), Json::Array(entries)),
    ])
}

/// Parses manifest text and checks the schema version.
///
/// # Errors
///
/// [`ManifestError`] when the text is not JSON or not a supported
/// manifest layout (individual entries are *not* validated here).
pub fn parse_manifest(text: &str) -> Result<Json, ManifestError> {
    let manifest = Json::parse(text).map_err(ManifestError::Json)?;
    match manifest.get("manifest_version").and_then(Json::as_usize) {
        Some(v) if v as u64 == MANIFEST_VERSION => {}
        Some(v) => {
            return Err(ManifestError::Schema(format!(
                "unsupported manifest_version {v} (this build reads {MANIFEST_VERSION})"
            )))
        }
        None => {
            return Err(ManifestError::Schema(
                "missing integer \"manifest_version\"".into(),
            ))
        }
    }
    if !matches!(manifest.get("entries"), Some(Json::Array(_))) {
        return Err(ManifestError::Schema("missing \"entries\" array".into()));
    }
    Ok(manifest)
}

/// Rebuilds every still-valid manifest entry into the engine's caches
/// ([`OperatorCache::warm`](crate::OperatorCache::warm); the builds
/// register as misses on the cache counters, exactly like first-job
/// builds would).
///
/// Stale entries — fingerprint mismatch under this engine's image
/// orders, floorplans that no longer validate, malformed records — are
/// skipped, never guessed at. Each rebuilt entry records its recipe
/// again, so a save → warm → save chain is idempotent.
pub fn warm(engine: &FleetEngine, manifest: &Json) -> WarmReport {
    let mut report = WarmReport::default();
    let entries = match manifest.get("entries").and_then(Json::as_array) {
        Some(entries) => entries,
        None => return report,
    };
    let config = engine.config();
    for entry in entries {
        let rebuilt = entry_from_json(entry).is_some_and(|(fingerprint, recipe)| {
            engine
                .cache()
                .warm(fingerprint, &recipe, config.lateral_order, config.z_order)
        });
        if rebuilt {
            report.rebuilt += 1;
        } else {
            report.skipped += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FleetEngineBuilder;
    use crate::jobs::parse_jsonl;

    fn request_text() -> &'static str {
        r#"
{"type": "floorplan", "name": "fp", "tiles": {"rows": 4, "cols": 4, "p_min": 0.02, "p_max": 0.06, "seed": 7}}
{"type": "steady", "floorplan": "fp", "dynamic_w": 0.3, "leakage_w": 0.03, "vdd_scales": [0.9, 1.0]}
{"type": "transient", "floorplan": "fp", "dynamic_w": 0.2, "leakage_w": 0.02, "dt_s": 1e-4, "steps": 10}
{"type": "map", "floorplan": "fp", "dynamic_w": 0.3, "leakage_w": 0.03, "vdd_scales": [1.0], "grid": {"nx": 8, "ny": 8}}
"#
    }

    fn served_engine() -> FleetEngine {
        let request = parse_jsonl(request_text()).expect("valid request");
        let engine = FleetEngineBuilder::new()
            .threads(2)
            .request(&request)
            .build()
            .expect("valid configuration");
        let report = engine.run(&request.jobs);
        assert!(report.jobs.iter().all(|j| j.outcome.is_ok()));
        engine
    }

    #[test]
    fn floorplan_round_trips_bit_exactly() {
        let plan = Floorplan::paper_three_blocks();
        let json = floorplan_to_json(&plan);
        let back = floorplan_from_json(&json).expect("round-trip");
        assert_eq!(back.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn manifest_is_deterministic_and_versioned() {
        let engine = served_engine();
        let m1 = manifest(&engine).render();
        let m2 = manifest(&engine).render();
        assert_eq!(m1, m2);
        let parsed = parse_manifest(&m1).expect("manifest parses");
        let entries = parsed
            .get("entries")
            .and_then(Json::as_array)
            .expect("entries");
        // Steady + transient + map recipes (no spectral: 16 blocks < threshold).
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn warm_rebuilds_and_matches_fingerprints() {
        let saved = manifest(&served_engine());
        let request = parse_jsonl(request_text()).expect("valid request");
        let fresh = FleetEngineBuilder::new()
            .threads(2)
            .request(&request)
            .build()
            .expect("valid configuration");
        let report = warm(&fresh, &saved);
        assert_eq!(
            report,
            WarmReport {
                rebuilt: 3,
                skipped: 0
            }
        );
        // Warmed caches make every first job a hit: zero further misses.
        let before = (
            fresh.cache().steady_stats().misses,
            fresh.cache().transient_stats().misses,
            fresh.cache().map_stats().misses,
        );
        let run = fresh.run(&request.jobs);
        assert!(run.jobs.iter().all(|j| j.outcome.is_ok()));
        assert_eq!(fresh.cache().steady_stats().misses, before.0);
        assert_eq!(fresh.cache().transient_stats().misses, before.1);
        assert_eq!(fresh.cache().map_stats().misses, before.2);
        // And a save → warm → save chain is idempotent.
        assert_eq!(manifest(&fresh).render(), saved.render());
    }

    #[test]
    fn warm_skips_stale_entries() {
        let saved = manifest(&served_engine());
        // A warming engine with different image orders computes
        // different fingerprints for every entry: all skipped.
        let mut config = crate::engine::FleetConfig::default();
        config.lateral_order += 1;
        let fresh = FleetEngineBuilder::new()
            .config(config)
            .build()
            .expect("valid configuration");
        let report = warm(&fresh, &saved);
        assert_eq!(report.rebuilt, 0);
        assert_eq!(report.skipped, 3);
    }

    #[test]
    fn manifest_lists_only_what_the_caches_hold() {
        // Three floorplans of distinct geometry through one-entry
        // caches: each steady job evicts its predecessor's operator,
        // and the recipe goes with it.
        let request = parse_jsonl(
            r#"
{"type": "floorplan", "name": "a", "tiles": {"rows": 1, "cols": 2}}
{"type": "floorplan", "name": "b", "tiles": {"rows": 2, "cols": 2}}
{"type": "floorplan", "name": "c", "tiles": {"rows": 2, "cols": 3}}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.1, "leakage_w": 0.01}
{"type": "steady", "floorplan": "b", "dynamic_w": 0.1, "leakage_w": 0.01}
{"type": "steady", "floorplan": "c", "dynamic_w": 0.1, "leakage_w": 0.01}
"#,
        )
        .expect("valid request");
        let engine = FleetEngineBuilder::new()
            .threads(1)
            .cache_capacity(1)
            .request(&request)
            .build()
            .expect("valid configuration");
        let report = engine.run(&request.jobs);
        assert_eq!(report.ok_count(), 3);
        assert_eq!(report.steady_cache.evictions, 2);
        let entries = |engine: &FleetEngine| {
            manifest(engine)
                .get("entries")
                .and_then(Json::as_array)
                .map(<[Json]>::len)
        };
        assert_eq!(entries(&engine), Some(1), "only the cached operator");
        engine.cache().evict_all();
        assert_eq!(entries(&engine), Some(0), "evicted recipes are gone");
    }

    #[test]
    fn parse_manifest_refuses_unknown_versions() {
        assert!(matches!(
            parse_manifest(r#"{"manifest_version": 99, "entries": []}"#),
            Err(ManifestError::Schema(_))
        ));
        assert!(matches!(
            parse_manifest(r#"{"entries": []}"#),
            Err(ManifestError::Schema(_))
        ));
        assert!(matches!(
            parse_manifest("not json"),
            Err(ManifestError::Json(_))
        ));
        assert!(parse_manifest(r#"{"manifest_version": 1, "entries": []}"#).is_ok());
    }
}
