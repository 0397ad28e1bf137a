//! Content-addressed result store.
//!
//! One flat directory, one file per completed job, named by the job's
//! [`content hash`](JobSpec::content_hash) (`<root>/<32 hex>.json`). Each
//! file is a self-describing envelope:
//!
//! ```text
//! {"job_hash":"9f2c...","origin":"computed","job":{...},"result":{...}}
//! ```
//!
//! * `job` is the full [`JobSpec`] the address was derived from, so the
//!   store can recompute any entry from first principles (the
//!   [`recheck`](ResultStore::recheck) integrity pass does exactly that).
//! * `result` is the job's canonical result JSON. Lookups hand back the
//!   parsed value, which serializes to these exact bytes: the workspace
//!   JSON writer keeps object order and prints shortest-round-trip
//!   floats, so parse → serialize is the identity on anything it wrote.
//!
//! The store is seeded from the repo's golden corpus
//! ([`seed_from_golden`](ResultStore::seed_from_golden)): the three
//! bundled fault plans against `configs/default_link.json` are exactly
//! the jobs `results/golden/fault_*.json` records, so a fresh service
//! starts with those grid corners pre-warmed and `recheck` doubles as a
//! golden-conformance probe.
//!
//! Invalidation is structural, not manual: the content address covers
//! `(PhyConfig, JobSpec, seed)` via the canonical job JSON under
//! [`JobSpec::HASH_DOMAIN`], so changing any input moves the address and
//! stale entries simply go unreachable. A PHY behaviour change that moves
//! results *without* moving specs is what `recheck` exists to catch.

use serde::{Deserialize, Serialize, Value};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fdb_core::hash::ContentHash;
use fdb_sim::{JobSpec, RunControl};

/// The on-disk envelope wrapped around every cached result, as read back.
#[derive(Debug, Clone, Deserialize)]
struct Envelope {
    /// The job's content address (redundant with the filename; kept so
    /// an envelope is self-describing when copied around).
    job_hash: String,
    /// Where the entry came from: `computed` or `golden:<name>`.
    origin: String,
    /// The full job spec the address hashes.
    job: Value,
    /// The job's canonical result JSON.
    result: Value,
}

/// [`Envelope`] as [`ResultStore::insert`] writes it: the job is written
/// straight from its spec, with no [`Value`] tree.
#[derive(Serialize)]
struct EnvelopeOut<'a> {
    job_hash: &'a str,
    origin: &'a str,
    job: &'a JobSpec,
    result: &'a Value,
}

/// A hit returned by [`ResultStore::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The stored result; it serializes to the canonical bytes stored.
    pub result: Value,
    /// Provenance of the entry (`computed` or `golden:<name>`).
    pub origin: String,
}

/// Outcome of a cache-integrity [`recheck`](ResultStore::recheck) pass.
#[derive(Debug, Clone, Default)]
pub struct RecheckOutcome {
    /// Entries recomputed.
    pub checked: u64,
    /// Entries whose recomputation reproduced the stored bytes.
    pub matched: u64,
    /// One diff summary per entry that no longer reproduces.
    pub mismatched: Vec<String>,
}

/// The content-addressed result store (thread-safe; lookups and inserts
/// take `&self`).
pub struct ResultStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Entries stored: one directory listing at `open`, then one more for
    /// each new address `insert` writes. Held across `insert`'s existence
    /// check and rename, so concurrent inserts of one job count it once.
    entries: Mutex<u64>,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let mut store = ResultStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries: Mutex::new(0),
        };
        *store.entries.get_mut().expect("fresh lock") = store.entry_paths().len() as u64;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, hash: &ContentHash) -> PathBuf {
        self.root.join(format!("{}.json", hash.to_hex()))
    }

    /// Looks up a job's stored result, counting the hit or miss. A
    /// corrupt entry reads as a miss.
    pub fn lookup(&self, hash: &ContentHash) -> Option<CachedResult> {
        match self.read_envelope(&self.entry_path(hash)) {
            Some(env) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(CachedResult {
                    result: env.result,
                    origin: env.origin,
                })
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `result` (a job result's canonical form) for `job` under its
    /// content address. Last writer wins; the write is atomic (temp file
    /// + rename) so concurrent readers never observe a torn entry.
    pub fn insert(&self, job: &JobSpec, result: &Value, origin: &str) -> io::Result<()> {
        let hash = job.content_hash();
        let env = EnvelopeOut {
            job_hash: &hash.to_hex(),
            origin,
            job,
            result,
        };
        let path = self.entry_path(&hash);
        let tmp = path.with_extension("json.tmp");
        let mut entries = self.entries.lock().expect("entry-count lock");
        let new = !path.exists();
        let mut file = io::BufWriter::new(std::fs::File::create(&tmp)?);
        serde_json::to_writer(&mut file, &env)?;
        file.write_all(b"\n")?;
        file.into_inner().map_err(io::IntoInnerError::into_error)?;
        std::fs::rename(&tmp, &path)?;
        *entries += new as u64;
        Ok(())
    }

    /// Number of entries stored, without listing the directory: the count
    /// taken at [`open`](ResultStore::open) plus the new addresses this
    /// store has inserted since. Entries another process adds or deletes
    /// show up only when the store is opened again.
    pub fn len(&self) -> u64 {
        *self.entries.lock().expect("entry-count lock")
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits recorded by [`lookup`](ResultStore::lookup) so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses recorded by [`lookup`](ResultStore::lookup) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn entry_paths(&self) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.root)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().map(|x| x == "json").unwrap_or(false))
            .collect();
        paths.sort();
        paths
    }

    fn read_envelope(&self, path: &Path) -> Option<Envelope> {
        let text = std::fs::read_to_string(path).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Seeds the store from the repo's golden corpus: for each bundled
    /// fault plan, the `(default_link, 6 frames, plan)` link job whose
    /// metrics `results/golden/fault_<name>.json` records. Existing
    /// entries are left alone. Returns how many entries were written.
    pub fn seed_from_golden(&self, repo_root: &Path) -> io::Result<usize> {
        let mut seeded = 0;
        for name in ["burst_collision", "drift_ramp", "sic_step"] {
            let job = golden_job(repo_root, name)?;
            if self.entry_path(&job.content_hash()).exists() {
                continue;
            }
            let golden = std::fs::read_to_string(
                repo_root.join(format!("results/golden/fault_{name}.json")),
            )?;
            let metrics = serde_json::value_from_str(&golden)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            // Wrap the bare metrics object the same way
            // `JobResult::Link { metrics }` serializes.
            let result = Value::Object(vec![(
                "Link".to_string(),
                Value::Object(vec![("metrics".to_string(), metrics)]),
            )]);
            self.insert(&job, &result, &format!("golden:fault_{name}"))?;
            seeded += 1;
        }
        Ok(seeded)
    }

    /// Integrity pass: recompute every `sample_every`-th entry (0 and 1
    /// both mean every entry) from its stored job spec and diff the
    /// canonical result bytes against what the store holds. Trace-free
    /// recomputation, so counters match what untraced submissions cached.
    pub fn recheck(&self, sample_every: u64) -> RecheckOutcome {
        let step = sample_every.max(1) as usize;
        let mut out = RecheckOutcome::default();
        for path in self.entry_paths().into_iter().step_by(step) {
            let Some(env) = self.read_envelope(&path) else {
                out.checked += 1;
                out.mismatched
                    .push(format!("{}: unreadable envelope", path.display()));
                continue;
            };
            out.checked += 1;
            let job = match JobSpec::from_value(&env.job) {
                Ok(job) => job,
                Err(e) => {
                    out.mismatched
                        .push(format!("{}: stored job invalid: {e}", env.job_hash));
                    continue;
                }
            };
            let stored = serde_json::to_string(&env.result).expect("stored value re-serializes");
            match job.run(RunControl::new()) {
                Ok(result) => {
                    let recomputed = result.canonical_json();
                    if recomputed == stored {
                        out.matched += 1;
                    } else {
                        out.mismatched.push(format!(
                            "{} ({}): recomputed result diverges from stored bytes \
                             ({} vs {} bytes)",
                            env.job_hash,
                            env.origin,
                            recomputed.len(),
                            stored.len()
                        ));
                    }
                }
                Err(e) => out.mismatched.push(format!(
                    "{} ({}): recompute failed: {e}",
                    env.job_hash, env.origin
                )),
            }
        }
        out
    }
}

/// The link job whose metrics `results/golden/fault_<name>.json` records:
/// `configs/default_link.json` with `configs/faults/<name>.json` at 6
/// frames — exactly what `probe link --config configs/default_link.json
/// --faults configs/faults/<name>.json --frames 6` runs.
pub fn golden_job(repo_root: &Path, name: &str) -> io::Result<JobSpec> {
    #[derive(Deserialize)]
    struct Scenario {
        link: fdb_core::link::LinkConfig,
        spec: fdb_sim::MeasureSpec,
    }
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let text = std::fs::read_to_string(repo_root.join("configs/default_link.json"))?;
    let scenario: Scenario = serde_json::from_str(&text).map_err(|e| invalid(e.to_string()))?;
    let plan: fdb_sim::FaultPlan = serde_json::from_str(&std::fs::read_to_string(
        repo_root.join(format!("configs/faults/{name}.json")),
    )?)
    .map_err(|e| invalid(e.to_string()))?;
    let mut spec = scenario.spec.with_faults(plan);
    spec.frames = 6;
    Ok(JobSpec::Link {
        link: scenario.link,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_core::link::LinkConfig;
    use fdb_sim::MeasureSpec;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdb-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    fn small_job(seed: u64) -> JobSpec {
        JobSpec::Link {
            link: LinkConfig::default_fd(),
            spec: MeasureSpec {
                frames: 2,
                seed,
                ..MeasureSpec::default()
            },
        }
    }

    #[test]
    fn insert_then_lookup_replays_exact_bytes() {
        let store = ResultStore::open(tmpdir("roundtrip")).unwrap();
        let job = small_job(3);
        let result = job.run(RunControl::new()).unwrap();
        let result_json = result.canonical_json();
        assert!(store.lookup(&job.content_hash()).is_none());
        store.insert(&job, &result.to_value(), "computed").unwrap();
        // The entry file is the envelope's compact JSON and a newline.
        let hash = job.content_hash().to_hex();
        let file = std::fs::read_to_string(store.root().join(format!("{hash}.json"))).unwrap();
        assert_eq!(
            file,
            format!(
                "{{\"job_hash\":\"{hash}\",\"origin\":\"computed\",\"job\":{},\"result\":{result_json}}}\n",
                serde_json::to_string(&job).unwrap()
            )
        );
        let hit = store.lookup(&job.content_hash()).expect("entry stored");
        assert_eq!(
            serde_json::to_string(&hit.result).unwrap(),
            result_json,
            "replayed bytes drifted"
        );
        assert_eq!(hit.origin, "computed");
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn entry_count_grows_only_for_new_addresses() {
        let dir = tmpdir("count");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let (a, b) = (small_job(7), small_job(8));
        let empty = Value::Object(Vec::new());
        store.insert(&a, &empty, "computed").unwrap();
        store.insert(&b, &empty, "computed").unwrap();
        assert_eq!(store.len(), 2);
        store.insert(&a, &empty, "computed").unwrap();
        assert_eq!(store.len(), 2, "a re-insert counted a second entry");
        assert_eq!(store.seed_from_golden(&repo_root()).unwrap(), 3);
        assert_eq!(store.len(), 5);
        // Two workers finishing the same job at once count it once.
        let c = small_job(9);
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    gate.wait();
                    store.insert(&c, &empty, "computed").unwrap();
                });
            }
        });
        assert_eq!(store.len(), 6);
        // A fresh listing agrees with the running count.
        assert_eq!(ResultStore::open(&dir).unwrap().len(), 6);
    }

    #[test]
    fn golden_seed_populates_three_entries_that_recheck_clean() {
        let store = ResultStore::open(tmpdir("golden")).unwrap();
        let seeded = store.seed_from_golden(&repo_root()).unwrap();
        assert_eq!(seeded, 3);
        // Seeding again is a no-op: the addresses already exist.
        assert_eq!(store.seed_from_golden(&repo_root()).unwrap(), 0);
        assert_eq!(store.len(), 3);
        let out = store.recheck(0);
        assert_eq!(out.checked, 3);
        assert_eq!(
            out.mismatched,
            Vec::<String>::new(),
            "golden-seeded entries must recompute to their stored bytes"
        );
        assert_eq!(out.matched, 3);
    }

    #[test]
    fn recheck_flags_a_poisoned_entry() {
        let store = ResultStore::open(tmpdir("poison")).unwrap();
        let job = small_job(5);
        let good = job.run(RunControl::new()).unwrap().canonical_json();
        // Store a result that belongs to a different job.
        let wrong = small_job(6).run(RunControl::new()).unwrap();
        assert_ne!(good, wrong.canonical_json(), "seeds 5 and 6 should differ");
        let wrong = wrong.to_value();
        store.insert(&job, &wrong, "computed").unwrap();
        let out = store.recheck(1);
        assert_eq!(out.checked, 1);
        assert_eq!(out.matched, 0);
        assert_eq!(out.mismatched.len(), 1);
    }
}
