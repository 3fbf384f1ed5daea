//! The store: an append-only wal plus sorted immutable segments under
//! one directory, with an in-memory index over every record key.
//!
//! ```text
//! <dir>/wal.seg          the active append target
//! <dir>/seg-000001.seg   immutable, sorted compaction outputs
//! ```
//!
//! **Durability.** `append` buffers, writes and flushes before
//! acknowledging, so a killed process loses at most the record it was
//! mid-way through writing — which recovery then truncates. Fitness
//! here is a pure function of the record key, so a lost *unacknowledged*
//! append is merely a cache miss later, never wrong data.
//!
//! **Recovery.** `open` replays every segment: sorted segments must
//! verify perfectly (they were synced before being renamed into place;
//! a failure there is disk corruption and errors out rather than
//! silently dropping data), while the wal's torn tail — the expected
//! residue of a crash mid-append — is truncated at the first
//! undecodable byte.
//!
//! **Compaction.** A background thread folds the wal and all previous
//! segments into one new sorted segment once the wal crosses a
//! threshold. The new segment is written and synced *before* the old
//! files are removed, so a crash anywhere in between leaves duplicate
//! records at worst; the index ignores duplicates (first key wins) and
//! the next compaction folds them away.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::record::{genome_digest, Fingerprint, Record, RecordKey};
use crate::segment::{header, read_segment, write_sorted_segment, SegmentKind, HEADER_LEN};

/// Store tunables.
#[derive(Clone)]
pub struct StoreOptions {
    /// Wal records that trigger a background compaction. `0` disables
    /// automatic compaction (explicit [`Store::compact`] still works).
    pub compact_threshold: usize,
    /// Where hit/miss/append/compaction counters and the append-latency
    /// histogram are recorded.
    pub obs: Arc<obs::Registry>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            compact_threshold: 4096,
            obs: Arc::clone(obs::global()),
        }
    }
}

/// Counters describing the store's current shape and traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct record keys indexed.
    pub records: usize,
    /// Distinct cells (workload fingerprints) seen.
    pub cells: usize,
    /// Records currently in the wal (since the last compaction).
    pub wal_records: usize,
    /// Sorted immutable segments on disk.
    pub segments: usize,
    /// Appends acknowledged this process.
    pub appends: u64,
    /// Lookups answered from the index this process.
    pub hits: u64,
    /// Lookups that missed this process.
    pub misses: u64,
    /// Compactions completed this process.
    pub compactions: u64,
    /// Bytes the last recovery truncated from a torn wal tail.
    pub recovered_torn_bytes: u64,
}

/// What one compaction did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records written into the new sorted segment.
    pub records: usize,
    /// Old files (segments + wal contents) folded in.
    pub folded_segments: usize,
}

/// Per-cell summary kept in memory for warm-start lookup.
struct CellEntry {
    fingerprint: Fingerprint,
    /// Every (genome, fitness) of the cell, insertion order.
    measurements: Vec<(Vec<i64>, f64)>,
}

struct Inner {
    wal: File,
    wal_records: usize,
    /// First write wins: fitness is pure in the key, so duplicates (a
    /// crash between compaction's rename and cleanup) are identical.
    index: HashMap<RecordKey, f64>,
    cells: HashMap<u64, CellEntry>,
    segment_ids: Vec<u64>,
    stats: StoreStats,
}

struct Shared {
    dir: PathBuf,
    inner: Mutex<Inner>,
    compact_cv: Condvar,
    compact_pending: Mutex<bool>,
    shutdown: AtomicBool,
    options: StoreOptions,
}

/// The fitness store. Cheap to share behind an `Arc`; all methods take
/// `&self`.
pub struct Store {
    shared: Arc<Shared>,
    compactor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.shared.dir)
            .finish_non_exhaustive()
    }
}

fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.seg"))
}

impl Store {
    /// Opens (or creates) the store at `dir` with default options,
    /// running crash recovery.
    ///
    /// # Errors
    /// I/O failures, or corruption in a sorted segment.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (or creates) the store with explicit options.
    ///
    /// # Errors
    /// I/O failures, or corruption in a sorted segment.
    pub fn open_with(dir: impl Into<PathBuf>, options: StoreOptions) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;

        // Residue of a compaction killed before its rename.
        for entry in std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))? {
            let p = entry.map_err(|e| io_err(&dir, e))?.path();
            if p.extension().is_some_and(|e| e == "tmp") {
                std::fs::remove_file(&p).ok();
            }
        }

        let mut inner = Inner {
            wal: OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("wal.seg"))
                .map_err(|e| io_err(&dir.join("wal.seg"), e))?,
            wal_records: 0,
            index: HashMap::new(),
            cells: HashMap::new(),
            segment_ids: Vec::new(),
            stats: StoreStats::default(),
        };

        // Sorted segments first (oldest first), then the wal: replay in
        // write order so "first key wins" keeps the oldest measurement.
        let mut ids: Vec<u64> = std::fs::read_dir(&dir)
            .map_err(|e| io_err(&dir, e))?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let id = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
                id.parse::<u64>().ok()
            })
            .collect();
        ids.sort_unstable();
        for &id in &ids {
            let scan = read_segment(&segment_path(&dir, id), SegmentKind::Sorted)?;
            for r in scan.records {
                Self::admit(&mut inner, &r);
            }
        }
        inner.segment_ids = ids;

        let wal_path = dir.join("wal.seg");
        let wal_len = std::fs::metadata(&wal_path)
            .map_err(|e| io_err(&wal_path, e))?
            .len();
        if wal_len == 0 {
            inner
                .wal
                .write_all(&header(SegmentKind::Wal))
                .and_then(|()| inner.wal.flush())
                .map_err(|e| io_err(&wal_path, e))?;
        } else {
            let scan = read_segment(&wal_path, SegmentKind::Wal)?;
            if scan.torn.is_some() {
                // The torn tail: truncate to the last good record and
                // reopen the append handle past it.
                inner.stats.recovered_torn_bytes = wal_len - scan.valid_len as u64;
                let f = OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .map_err(|e| io_err(&wal_path, e))?;
                f.set_len(scan.valid_len as u64)
                    .map_err(|e| io_err(&wal_path, e))?;
                f.sync_all().map_err(|e| io_err(&wal_path, e))?;
                drop(f);
                inner.wal = OpenOptions::new()
                    .append(true)
                    .open(&wal_path)
                    .map_err(|e| io_err(&wal_path, e))?;
                if scan.valid_len == 0 {
                    inner
                        .wal
                        .write_all(&header(SegmentKind::Wal))
                        .and_then(|()| inner.wal.flush())
                        .map_err(|e| io_err(&wal_path, e))?;
                }
            }
            inner.wal_records = scan.records.len();
            for r in scan.records {
                Self::admit(&mut inner, &r);
            }
        }

        let shared = Arc::new(Shared {
            dir,
            inner: Mutex::new(inner),
            compact_cv: Condvar::new(),
            compact_pending: Mutex::new(false),
            shutdown: AtomicBool::new(false),
            options,
        });

        let compactor = if shared.options.compact_threshold > 0 {
            let s = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("stored-compactor".into())
                    .spawn(move || compactor_loop(&s))
                    .map_err(|e| format!("cannot spawn compactor: {e}"))?,
            )
        } else {
            None
        };

        Ok(Self {
            shared,
            compactor: Mutex::new(compactor),
        })
    }

    fn admit(inner: &mut Inner, rec: &Record) {
        let key = rec.key();
        if inner.index.contains_key(&key) {
            return;
        }
        inner.index.insert(key, rec.fitness);
        inner
            .cells
            .entry(rec.fingerprint.cell_digest)
            .or_insert_with(|| CellEntry {
                fingerprint: rec.fingerprint.clone(),
                measurements: Vec::new(),
            })
            .measurements
            .push((rec.genome.clone(), rec.fitness));
    }

    /// Appends one measurement. Returns `true` if the record was new
    /// (written to the wal) and `false` if its key was already present
    /// — the store never rewrites a measurement, so duplicate appends
    /// are free.
    ///
    /// Acknowledgment means the bytes reached the wal (written and
    /// flushed); a crash after `append` returns cannot lose the record.
    ///
    /// # Errors
    /// Wal I/O failures.
    pub fn append(&self, rec: &Record) -> Result<bool, String> {
        let obs = &self.shared.options.obs;
        let threshold = self.shared.options.compact_threshold;
        let start = obs.now_micros();
        let fresh;
        let mut nudge = false;
        {
            let mut inner = self.shared.inner.lock().expect("store poisoned");
            if inner.index.contains_key(&rec.key()) {
                fresh = false;
            } else {
                let bytes = crate::segment::encode_record(rec);
                inner
                    .wal
                    .write_all(&bytes)
                    .and_then(|()| inner.wal.flush())
                    .map_err(|e| format!("wal append failed: {e}"))?;
                Self::admit(&mut inner, rec);
                inner.wal_records += 1;
                inner.stats.appends += 1;
                fresh = true;
                nudge = threshold > 0 && inner.wal_records >= threshold;
            }
        }
        if fresh {
            obs.counter("store_appends").inc();
            obs.histogram("store_append_micros")
                .record(obs.now_micros().saturating_sub(start));
        }
        if nudge {
            self.nudge_compactor();
        }
        Ok(fresh)
    }

    /// The stored fitness for `(cell, genome)`, if any. Counts a hit or
    /// a miss.
    #[must_use]
    pub fn get(&self, cell_digest: u64, genome: &[i64]) -> Option<f64> {
        let key = (cell_digest, genome_digest(genome));
        let mut inner = self.shared.inner.lock().expect("store poisoned");
        let found = inner.index.get(&key).copied();
        let obs = &self.shared.options.obs;
        if found.is_some() {
            inner.stats.hits += 1;
            obs.counter("store_hits").inc();
        } else {
            inner.stats.misses += 1;
            obs.counter("store_misses").inc();
        }
        found
    }

    /// Seed genomes for warm-starting a search over `target`: cells are
    /// ranked by fingerprint distance (ties by cell digest, so the
    /// result is a pure function of store contents), and the best
    /// genomes of the nearest cells are interleaved — nearest cell's
    /// best first — until `k` distinct genomes are collected. Only
    /// cells of the *same problem* as the target are considered:
    /// genomes from a different problem mean different things, so
    /// cross-problem transfer would seed garbage. Empty when the store
    /// has no measurements for the problem: the caller falls back to a
    /// cold start.
    #[must_use]
    pub fn warm_seeds(&self, target: &Fingerprint, k: usize) -> Vec<Vec<i64>> {
        let per_cell: Vec<Vec<(Vec<i64>, f64)>> = {
            let inner = self.shared.inner.lock().expect("store poisoned");
            let mut cells: Vec<(&u64, &CellEntry)> = inner
                .cells
                .iter()
                .filter(|(_, c)| c.fingerprint.problem == target.problem)
                .collect();
            cells.sort_by(|(da, a), (db, b)| {
                let xa = a.fingerprint.distance2(target);
                let xb = b.fingerprint.distance2(target);
                xa.partial_cmp(&xb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(da.cmp(db))
            });
            cells
                .into_iter()
                .map(|(_, c)| {
                    let mut ranked: Vec<(usize, &(Vec<i64>, f64))> =
                        c.measurements.iter().enumerate().collect();
                    ranked.sort_by(|(ia, (_, fa)), (ib, (_, fb))| {
                        fa.partial_cmp(fb)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(ia.cmp(ib))
                    });
                    ranked.into_iter().map(|(_, m)| m.clone()).collect()
                })
                .collect()
        };

        let mut seeds: Vec<Vec<i64>> = Vec::with_capacity(k);
        let mut depth = 0;
        loop {
            let mut any = false;
            for cell in &per_cell {
                if let Some((g, _)) = cell.get(depth) {
                    any = true;
                    if !seeds.contains(g) {
                        seeds.push(g.clone());
                        if seeds.len() == k {
                            return seeds;
                        }
                    }
                }
            }
            if !any {
                return seeds;
            }
            depth += 1;
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.shared.inner.lock().expect("store poisoned");
        StoreStats {
            records: inner.index.len(),
            cells: inner.cells.len(),
            wal_records: inner.wal_records,
            segments: inner.segment_ids.len(),
            ..inner.stats.clone()
        }
    }

    /// Folds the wal and every sorted segment into one new sorted
    /// segment (records sorted by key), then removes the old files and
    /// truncates the wal. Safe against a crash at any point: the new
    /// segment is synced and renamed into place before anything is
    /// deleted.
    ///
    /// # Errors
    /// I/O failures; the store stays usable (the old files remain).
    pub fn compact(&self) -> Result<CompactionReport, String> {
        let mut inner = self.shared.inner.lock().expect("store poisoned");
        let dir = &self.shared.dir;

        // Re-read from disk rather than trusting memory: compaction is
        // also the integrity pass that re-verifies every checksum.
        let mut records: Vec<Record> = Vec::new();
        let mut seen: HashMap<RecordKey, ()> = HashMap::new();
        let folded = inner.segment_ids.len() + usize::from(inner.wal_records > 0);
        for &id in &inner.segment_ids {
            for r in read_segment(&segment_path(dir, id), SegmentKind::Sorted)?.records {
                if seen.insert(r.key(), ()).is_none() {
                    records.push(r);
                }
            }
        }
        inner.wal.flush().map_err(|e| format!("wal flush: {e}"))?;
        let wal_path = dir.join("wal.seg");
        for r in read_segment(&wal_path, SegmentKind::Wal)?.records {
            if seen.insert(r.key(), ()).is_none() {
                records.push(r);
            }
        }
        records.sort_by_key(Record::key);

        let next_id = inner.segment_ids.last().copied().unwrap_or(0) + 1;
        let new_path = segment_path(dir, next_id);
        write_sorted_segment(&new_path, &records)?;

        // Point of no return: the new segment is durable. Clean up.
        let old_ids = std::mem::take(&mut inner.segment_ids);
        for id in old_ids {
            std::fs::remove_file(segment_path(dir, id)).ok();
        }
        let f = OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .map_err(|e| io_err(&wal_path, e))?;
        f.set_len(HEADER_LEN as u64)
            .map_err(|e| io_err(&wal_path, e))?;
        f.sync_all().map_err(|e| io_err(&wal_path, e))?;
        drop(f);
        inner.wal = OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err(&wal_path, e))?;
        inner.wal_records = 0;
        inner.segment_ids = vec![next_id];
        inner.stats.compactions += 1;
        self.shared.options.obs.counter("store_compactions").inc();

        Ok(CompactionReport {
            records: records.len(),
            folded_segments: folded,
        })
    }

    /// Every record currently in the store (index order is undefined;
    /// sorted by key for determinism). Intended for tests and tooling.
    #[must_use]
    pub fn snapshot_records(&self) -> Vec<(RecordKey, f64)> {
        let inner = self.shared.inner.lock().expect("store poisoned");
        let mut out: Vec<(RecordKey, f64)> = inner.index.iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    fn nudge_compactor(&self) {
        let mut pending = self
            .shared
            .compact_pending
            .lock()
            .expect("compactor poisoned");
        *pending = true;
        self.shared.compact_cv.notify_one();
    }
}

fn compactor_loop(shared: &Arc<Shared>) {
    let store = Store {
        shared: Arc::clone(shared),
        compactor: Mutex::new(None),
    };
    loop {
        {
            let mut pending = shared.compact_pending.lock().expect("compactor poisoned");
            while !*pending && !shared.shutdown.load(Ordering::SeqCst) {
                pending = shared.compact_cv.wait(pending).expect("compactor poisoned");
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            *pending = false;
        }
        // Threshold re-checked under the store lock; a nudge that lost
        // the race to an explicit compact() is a no-op fold.
        let due = {
            let inner = shared.inner.lock().expect("store poisoned");
            inner.wal_records >= shared.options.compact_threshold.max(1)
        };
        if due {
            // Background compaction is best-effort; a failure leaves
            // the store fully usable and the next nudge retries.
            store.compact().ok();
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.compact_cv.notify_all();
        if let Some(h) = self.compactor.lock().expect("compactor poisoned").take() {
            h.join().ok();
        }
    }
}
