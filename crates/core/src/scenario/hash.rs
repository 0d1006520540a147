//! Content addressing for concrete scenario specs.
//!
//! A [`ScenarioHash`] is a stable SHA-256 digest of the *semantic* content of
//! a concrete (post-expansion) [`ScenarioSpec`]: the platform, package,
//! workload, policy, schedule and analysis sections — everything that
//! influences what a run computes. Two specs that describe the same run hash
//! identically even when they were written differently:
//!
//! * **Field order does not matter.** The digest is taken over a canonical
//!   JSON rendering with recursively sorted map keys, so reordering TOML
//!   tables or keys changes nothing.
//! * **Labels do not matter.** The `name` and `description` fields are
//!   excluded; renaming a scenario never invalidates its cached reports.
//! * **Absent and defaulted sections are distinct.** Hashing happens on the
//!   spec as written (`[schedule] warmup = 8.0` hashes differently from an
//!   absent `[schedule]`, even though both resolve to the same run).
//! * **Changing a default invalidates every cache.** A fingerprint of the
//!   fully resolved default configuration (package, policy, threshold,
//!   schedule, platform, workload) is folded into every digest, so a spec
//!   that *relies* on a default cannot keep its hash while the default — and
//!   with it the run's semantics — changes underneath it. Editing any
//!   default misses every existing cache entry cleanly.
//!
//! The digest is domain-separated with a format-version prefix
//! ([`HASH_DOMAIN`]); bumping the version invalidates every existing cache
//! entry at once, which is the intended behaviour when the spec schema
//! changes incompatibly.
//!
//! ```
//! use tbp_core::scenario::{ScenarioHash, ScenarioSpec};
//!
//! let a = ScenarioSpec::from_toml_str(
//!     "name = \"a\"\n[policy]\nname = \"stop-and-go\"\nthreshold = 2.0\n",
//! )
//! .unwrap();
//! let b = ScenarioSpec::from_toml_str(
//!     "name = \"b\"\n[policy]\nthreshold = 2.0\nname = \"stop-and-go\"\n",
//! )
//! .unwrap();
//! // Different names, different field order — same semantic content.
//! assert_eq!(ScenarioHash::of(&a).unwrap(), ScenarioHash::of(&b).unwrap());
//! ```

use std::fmt;

use serde::{Serialize, Value};

use crate::error::SimError;
use crate::scenario::spec::{
    PlatformSpec, ScenarioSpec, WorkloadDecl, DEFAULT_DVFS, DEFAULT_MIGRATION, DEFAULT_SOLVER,
};

/// Format-version prefix mixed into every digest. Bump the version when the
/// spec schema (or the canonicalisation) changes incompatibly: every cache
/// keyed by the old digests then misses cleanly instead of replaying stale
/// reports.
///
/// History: `v2` — the workload subsystem landed (new `WorkloadKind`s, knob
/// tables, sweep axes) and `SplitMix64::below` switched to unbiased
/// rejection sampling, which shifts every seeded task stream; reports cached
/// under `v1` describe runs the current code would not reproduce.
///
/// `v3` ([`HASH_DOMAIN_PHASED`]) — live reconfiguration landed: specs that
/// declare a `[[phases]]` table hash under the `v3` domain, which covers the
/// phase deltas. Specs *without* phases keep hashing under `v2` (their
/// canonical JSON is unchanged — absent fields are dropped), so existing
/// caches of static scenarios stay valid and only phased specs get new keys.
/// One caveat rides along: the same change made `Simulation::run_for`'s step
/// count epsilon-robust, which runs one *fewer* step for schedules whose
/// `duration / time_step` quotient lands a few ULPs above an integer (none
/// of the shipped scenarios do). A pre-fix cache entry for such a schedule
/// describes a run that was one step too long — the bug this fixed — so
/// drop the cache directory if exact step counts matter for those entries.
pub const HASH_DOMAIN: &str = "tbp-scenario-spec-v2";

/// Format-version prefix of specs that declare live-reconfiguration phases.
/// See [`HASH_DOMAIN`] for the history.
pub const HASH_DOMAIN_PHASED: &str = "tbp-scenario-spec-v3";

/// Top-level spec fields that do not change what a run computes: labels,
/// and the `[trace]` table (tracing observes a run without changing it).
const NON_SEMANTIC_FIELDS: [&str; 3] = ["name", "description", "trace"];

/// A stable content hash of a concrete [`ScenarioSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScenarioHash([u8; 32]);

impl ScenarioHash {
    /// Hashes the semantic content of a concrete spec.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when the spec still carries a sweep: a
    /// sweep-carrying spec is a *family* of runs, not one run, and caching it
    /// under a single key would conflate all its grid points. Call
    /// [`ScenarioSpec::expand`] first.
    pub fn of(spec: &ScenarioSpec) -> Result<Self, SimError> {
        if spec.sweep.is_some() {
            return Err(SimError::Spec(format!(
                "scenario `{}` still carries a sweep and has no content hash; \
                 call expand() and hash the concrete runs",
                spec.name
            )));
        }
        let mut sha = prefix_state(spec.has_phases()).clone();
        sha.update(canonical_json(spec).as_bytes());
        Ok(ScenarioHash(sha.finalize()))
    }

    /// Digest identifying one expanded batch: the ordered `(group, name,
    /// content hash)` triples of its runs. Shard workers stamp it into their
    /// partial reports so partials produced from *different* batches (other
    /// scenario files, another `TBP_DURATION`, …) refuse to merge instead of
    /// silently posing as the current configuration's results.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when a case still carries a sweep.
    pub fn of_batch<'a, I>(cases: I) -> Result<Self, SimError>
    where
        I: IntoIterator<Item = (&'a str, &'a ScenarioSpec)>,
    {
        let mut sha = Sha256::new();
        sha.update(b"tbp-scenario-batch-v1");
        for (group, case) in cases {
            sha.update(&[0]);
            sha.update(group.as_bytes());
            sha.update(&[0]);
            sha.update(case.name.as_bytes());
            sha.update(&[0]);
            sha.update(ScenarioHash::of(case)?.as_bytes());
        }
        Ok(ScenarioHash(sha.finalize()))
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The digest as 64 lowercase hex characters (the cache file stem).
    pub fn to_hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(64);
        for byte in &self.0 {
            out.push(char::from(DIGITS[usize::from(byte >> 4)]));
            out.push(char::from(DIGITS[usize::from(byte & 0xf)]));
        }
        out
    }

    /// Parses a digest back from its 64-character hex form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when `text` is not exactly 64 hex digits.
    pub fn from_hex(text: &str) -> Result<Self, SimError> {
        let bytes = text.as_bytes();
        if bytes.len() != 64 {
            return Err(SimError::Spec(format!(
                "scenario hash must be 64 hex digits, got {} characters",
                bytes.len()
            )));
        }
        let digit = |c: u8| -> Result<u8, SimError> {
            match c {
                b'0'..=b'9' => Ok(c - b'0'),
                b'a'..=b'f' => Ok(c - b'a' + 10),
                b'A'..=b'F' => Ok(c - b'A' + 10),
                _ => Err(SimError::Spec(format!(
                    "invalid hex digit `{}` in scenario hash",
                    c as char
                ))),
            }
        };
        let mut out = [0u8; 32];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            out[i] = (digit(pair[0])? << 4) | digit(pair[1])?;
        }
        Ok(ScenarioHash(out))
    }
}

impl fmt::Display for ScenarioHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A deterministic rendering of the fully resolved default configuration —
/// everything a spec inherits when it leaves a section out. Folded into
/// every digest so that editing a default (threshold, schedule, platform
/// parameters, the SDR benchmark setup, …) changes every hash and existing
/// caches miss cleanly rather than replaying reports computed under the old
/// semantics.
fn defaults_fingerprint() -> &'static str {
    static FINGERPRINT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    FINGERPRINT.get_or_init(|| {
        let defaults = ScenarioSpec::new(String::new());
        format!(
            "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}",
            defaults.package_kind(),
            defaults.policy_spec().name,
            defaults.threshold(),
            defaults.schedule(),
            PlatformSpec::default().to_config(),
            DEFAULT_SOLVER,
            DEFAULT_MIGRATION,
            DEFAULT_DVFS,
            WorkloadDecl::default().to_workload(),
            // Per-kind generator defaults: a spec selecting a workload kind
            // without a knob table relies on these resolved values.
            tbp_streaming::workloads::WorkloadParams::default(),
            tbp_streaming::workloads::VideoKnobs::default().resolve(),
            tbp_streaming::workloads::DagKnobs::default().resolve(),
        )
    })
}

/// The SHA-256 state after absorbing `domain ‖ 0 ‖ defaults_fingerprint() ‖ 0`,
/// the prefix every digest of that domain starts with.
///
/// The fingerprint is about 3 KB while a spec's canonical JSON is a few
/// hundred bytes, so re-absorbing it took about four fifths of every
/// [`ScenarioHash::of`]. Absorbing it once per domain and cloning the state
/// (about 100 bytes) yields the same digests from the spec's bytes alone.
fn prefix_state(phased: bool) -> &'static Sha256 {
    static STATES: std::sync::OnceLock<[Sha256; 2]> = std::sync::OnceLock::new();
    let states = STATES.get_or_init(|| {
        [HASH_DOMAIN, HASH_DOMAIN_PHASED].map(|domain| {
            let mut sha = Sha256::new();
            sha.update(domain.as_bytes());
            sha.update(&[0]);
            sha.update(defaults_fingerprint().as_bytes());
            sha.update(&[0]);
            sha
        })
    });
    &states[usize::from(phased)]
}

/// The canonical JSON preimage of a spec's semantic content: top-level `name`
/// and `description` removed, map keys recursively sorted, absent (`None`)
/// values dropped, compact separators. This is what [`ScenarioHash::of`]
/// digests; it is exposed for debugging cache keys.
pub fn canonical_json(spec: &ScenarioSpec) -> String {
    let mut value = spec.to_value();
    if let Value::Map(entries) = &mut value {
        entries.retain(|(key, _)| !NON_SEMANTIC_FIELDS.contains(&key.as_str()));
    }
    let mut out = String::new();
    write_canonical(&mut out, &value);
    out
}

fn write_canonical(out: &mut String, value: &Value) {
    match value {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            // `{:?}` prints the shortest representation that round-trips, so
            // equal floats always canonicalise to equal text.
            if f.is_nan() {
                out.push_str("NaN");
            } else if f.is_infinite() {
                out.push_str(if *f > 0.0 { "Infinity" } else { "-Infinity" });
            } else {
                out.push_str(&format!("{f:?}"));
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            let mut sorted: Vec<&(String, Value)> = entries
                .iter()
                .filter(|(_, v)| !matches!(v, Value::Unit))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            out.push('{');
            for (i, (key, item)) in sorted.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, key);
                out.push(':');
                write_canonical(out, item);
            }
            out.push('}');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Plain SHA-256 (FIPS 180-4). The workspace builds without a crates
/// registry, so the digest is implemented here rather than pulled in.
#[derive(Clone)]
struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

#[rustfmt::skip]
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Sha256 {
    fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        while !data.is_empty() {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
    }

    fn finalize(mut self) -> [u8; 32] {
        let bit_length = self.length.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0]);
        }
        self.update(&bit_length.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, value) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *slot = slot.wrapping_add(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::SweepSpec;

    fn sha256_hex(data: &[u8]) -> String {
        let mut sha = Sha256::new();
        sha.update(data);
        let digest = sha.finalize();
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn hash_domain_is_still_v2() {
        // The PR 4 hot-loop rework (compiled thermal kernel, reusable step
        // workspaces, zero-allocation stepping) is required to be invisible
        // in simulation output: reports stay byte-identical, so every cache
        // entry hashed under the v2 domain remains valid and the domain must
        // NOT be bumped. A failure here means someone changed the domain —
        // which invalidates all existing caches and must be deliberate.
        assert_eq!(HASH_DOMAIN, "tbp-scenario-spec-v2");
        assert_eq!(HASH_DOMAIN_PHASED, "tbp-scenario-spec-v3");
    }

    #[test]
    fn domain_v3_only_changes_hashes_of_specs_that_declare_phases() {
        use crate::scenario::spec::PhaseSpec;

        // Golden digests captured on the pre-phases tree: the v3 domain is
        // applied only to specs declaring `[[phases]]`, so every static
        // spec's hash — and with it every existing cache entry — must be
        // byte-for-byte what it was before live reconfiguration landed.
        let plain = ScenarioSpec::new("x");
        assert_eq!(
            ScenarioHash::of(&plain).unwrap().to_hex(),
            "60d4aae6e10604196a63b60328b0df34452c4854807eaf52d9d030cfb976f78e"
        );
        let with_policy = ScenarioSpec::new("y").with_policy("stop-and-go", 2.0);
        assert_eq!(
            ScenarioHash::of(&with_policy).unwrap().to_hex(),
            "7942bb21527cbece9c96b48686e675148b6f528b25f280c408cb832e59099a45"
        );

        // Declaring phases switches the spec to the v3 domain: even an empty
        // phase table hashes differently from the phase-free spec, and the
        // phase contents are covered by the digest.
        let empty_phases = ScenarioSpec::new("x").with_phases(Vec::new());
        assert_ne!(
            ScenarioHash::of(&plain).unwrap(),
            ScenarioHash::of(&empty_phases).unwrap()
        );
        let phased = ScenarioSpec::new("x").with_phases([PhaseSpec::at(5.0).with_threshold(2.0)]);
        let retimed = ScenarioSpec::new("x").with_phases([PhaseSpec::at(6.0).with_threshold(2.0)]);
        let retuned = ScenarioSpec::new("x").with_phases([PhaseSpec::at(5.0).with_threshold(1.0)]);
        let swapped =
            ScenarioSpec::new("x").with_phases([PhaseSpec::at(5.0).with_policy("stop-and-go")]);
        let all = [
            ScenarioHash::of(&phased).unwrap(),
            ScenarioHash::of(&retimed).unwrap(),
            ScenarioHash::of(&retuned).unwrap(),
            ScenarioHash::of(&swapped).unwrap(),
            ScenarioHash::of(&empty_phases).unwrap(),
        ];
        let mut uniq: Vec<String> = all.iter().map(|h| h.to_hex()).collect();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), all.len(), "every phase knob must hash");
    }

    #[test]
    fn sha256_matches_fips_test_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Exercise the multi-block and odd-boundary paths.
        assert_eq!(
            sha256_hex(&[b'a'; 1000]),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
        let mut incremental = Sha256::new();
        for chunk in [b'a'; 1000].chunks(7) {
            incremental.update(chunk);
        }
        let digest: String = incremental
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            digest,
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn hex_round_trips() {
        let spec = ScenarioSpec::new("hex");
        let hash = ScenarioHash::of(&spec).unwrap();
        let hex = hash.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(ScenarioHash::from_hex(&hex).unwrap(), hash);
        assert_eq!(ScenarioHash::from_hex(&hex.to_uppercase()).unwrap(), hash);
        assert_eq!(format!("{hash}"), hex);
        assert!(ScenarioHash::from_hex("abc").is_err());
        assert!(ScenarioHash::from_hex(&"z".repeat(64)).is_err());
    }

    #[test]
    fn names_and_descriptions_do_not_hash() {
        let a = ScenarioSpec::new("a").with_policy("stop-and-go", 2.0);
        let b = ScenarioSpec::new("b")
            .with_description("same semantics, different label")
            .with_policy("stop-and-go", 2.0);
        assert_eq!(ScenarioHash::of(&a).unwrap(), ScenarioHash::of(&b).unwrap());
        assert_eq!(canonical_json(&a), canonical_json(&b));
    }

    #[test]
    fn trace_table_does_not_hash() {
        // The `[trace]` table configures observation, not simulation: adding
        // or editing it must keep cache keys (and cached results) valid.
        let plain = ScenarioSpec::new("t").with_policy("stop-and-go", 2.0);
        let mut traced = plain.clone();
        traced.trace = Some(crate::scenario::spec::TraceSpec {
            interval_ms: Some(50.0),
            tracks: Some(vec!["temperatures".into(), "reconfigs".into()]),
        });
        assert_eq!(
            ScenarioHash::of(&plain).unwrap(),
            ScenarioHash::of(&traced).unwrap()
        );
        assert_eq!(canonical_json(&plain), canonical_json(&traced));
    }

    #[test]
    fn every_workload_knob_changes_the_hash() {
        use crate::scenario::spec::{WorkloadDecl, WorkloadKind};

        let base = ScenarioSpec::new("wl").with_workload(WorkloadDecl::of_kind(WorkloadKind::Dag));
        let base_hash = ScenarioHash::of(&base).unwrap();
        let mutate = |f: &dyn Fn(&mut WorkloadDecl)| {
            let mut decl = WorkloadDecl::of_kind(WorkloadKind::Dag);
            f(&mut decl);
            ScenarioHash::of(&ScenarioSpec::new("wl").with_workload(decl)).unwrap()
        };
        let variants = [
            mutate(&|d| d.kind = Some(WorkloadKind::VideoAnalytics)),
            mutate(&|d| d.seed = Some(1)),
            mutate(&|d| d.queue_capacity = Some(9)),
            mutate(&|d| d.prefill = Some(2)),
            mutate(&|d| d.generator = Some("custom".into())),
            mutate(&|d| {
                d.dag = Some(tbp_streaming::workloads::DagKnobs {
                    depth: Some(5),
                    ..Default::default()
                })
            }),
            mutate(&|d| {
                d.dag = Some(tbp_streaming::workloads::DagKnobs {
                    skew: Some(0.9),
                    ..Default::default()
                })
            }),
            mutate(&|d| {
                d.video = Some(tbp_streaming::workloads::VideoKnobs {
                    streams: Some(3),
                    ..Default::default()
                })
            }),
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(
                base_hash, *variant,
                "workload knob change #{i} must change the content hash"
            );
        }
        // And distinct knob values hash distinctly from one another.
        let mut all: Vec<String> = variants.iter().map(|h| h.to_hex()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), variants.len());
    }

    #[test]
    fn sweep_specs_have_no_content_hash() {
        let spec =
            ScenarioSpec::new("swept").with_sweep(SweepSpec::default().with_thresholds([1.0]));
        assert!(matches!(ScenarioHash::of(&spec), Err(SimError::Spec(_))));
    }

    #[test]
    fn canonical_json_sorts_keys_and_drops_absent_fields() {
        let spec = ScenarioSpec::new("canon").with_policy("dvfs-only", 1.5);
        let json = canonical_json(&spec);
        assert!(!json.contains("name\":\"canon"), "{json}");
        assert!(!json.contains("null"), "{json}");
        assert_eq!(
            json,
            "{\"policy\":{\"name\":\"dvfs-only\",\"threshold\":1.5}}"
        );
    }
}
