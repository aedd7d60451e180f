//! The ROBDD manager: arena node store with per-variable open-addressed
//! unique subtables, complement edges, ITE with a direct-mapped computed
//! cache, and the `constrain`/`restrict` minimization
//! operators that carry the paper's case-split constraints from the reference
//! FPU into the implementation FPU.
//!
//! # Kernel layout
//!
//! Nodes live in one flat arena (`Vec<Node>`); a [`Bdd`] is a 32-bit edge
//! (`node id << 1 | complement`). Node ids are **stable for the lifetime of
//! the node**: garbage collection is in-place mark-and-sweep, so live ids
//! never move and [`BddManager::gc`] returns its roots unchanged. Dead slots
//! go on a free list and are reused by the next `mk_node`.
//!
//! The unique table is split into per-variable subtables, each an
//! open-addressed power-of-two array of node ids with linear probing and
//! tombstone-free insert-or-get (deletions happen only during GC, which
//! rebuilds each subtable from the live nodes). The computed cache is a
//! fixed-size direct-mapped array of `(op, f, g, h) -> result` slots with
//! single-probe replace: collisions evict (counted in
//! [`BddStats::cache_evictions`]), and GC preserves every entry whose
//! operands and result survive instead of discarding the cache wholesale.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast non-cryptographic hasher (multiply-xor-shift) for the remaining
/// map uses (`sat_count` memo, reorder rebuild memo), where keys are small
/// tuples of integers.
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Process 8-byte words, then fold the partial tail (tagged with its
        // length so `"ab"` and `"ab\0"` hash differently) in one final mix.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(word) ^ ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let mut x = self.0 ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 31;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 29;
        self.0 = x;
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A BDD variable. The index is fixed at creation; its *level* (position in
/// the order) may change through reordering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BddVar(pub(crate) u32);

impl BddVar {
    /// Returns the dense index of this variable (creation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a variable handle from a dense index.
    ///
    /// The variable must already exist in the manager this handle is used
    /// with; operations panic otherwise.
    pub fn from_index(index: usize) -> BddVar {
        BddVar(index as u32)
    }
}

/// An edge to a BDD node, possibly complemented. This is the public handle
/// for a boolean function; it is `Copy` and only meaningful together with the
/// [`BddManager`] that produced it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant true function.
    pub const TRUE: Bdd = Bdd(0);
    /// The constant false function.
    pub const FALSE: Bdd = Bdd(1);

    #[inline]
    fn new(id: u32, complement: bool) -> Bdd {
        Bdd(id << 1 | u32::from(complement))
    }

    #[inline]
    fn id(self) -> u32 {
        self.0 >> 1
    }

    #[inline]
    fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the complement (logical negation) of this function. This is a
    /// constant-time operation thanks to complement edges.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// Returns `true` if this is the constant true function.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns `true` if this is the constant false function.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Returns `true` if this is a constant.
    #[inline]
    pub fn is_const(self) -> bool {
        self.id() == 0
    }
}

impl std::ops::Not for Bdd {
    type Output = Bdd;
    #[inline]
    fn not(self) -> Bdd {
        Bdd::not(self)
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "!n{}", self.id())
        } else {
            write!(f, "n{}", self.id())
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Variable index (not level).
    var: u32,
    /// High (then) child; never complemented by the canonical form.
    high: Bdd,
    /// Low (else) child; may be complemented.
    low: Bdd,
}

const TERMINAL_VAR: u32 = u32::MAX;
/// Arena slots on the free list carry this variable tag.
const FREE_VAR: u32 = u32::MAX - 1;
/// Empty slot marker in the open-addressed unique subtables.
const EMPTY_SLOT: u32 = u32::MAX;

/// Default computed-cache size *cap* in entries (a power of two; each entry
/// is 20 bytes). The cache starts at 4096 entries and doubles on
/// occupancy up to this cap, so small cases keep a hot, compact cache while
/// big sweeps still get capacity. Override per manager with
/// [`BddManager::with_cache_size`] or per run with
/// `RunConfig::bdd_cache_size` / `FMAVERIFY_BDD_CACHE_SIZE`.
pub const DEFAULT_CACHE_SIZE: usize = 1 << 20;

/// Smallest accepted computed-cache size cap; requests below are rounded up.
pub const MIN_CACHE_SIZE: usize = 1 << 10;

/// Number of entries the computed cache starts with (before on-demand
/// doubling); 4096 × 20 bytes sits comfortably in L2.
pub const INITIAL_CACHE_SIZE: usize = 1 << 12;

/// Arenas smaller than this are always collected in place: compaction's
/// locality payoff cannot matter at sizes that already fit in cache, and
/// keeping small collections id-stable keeps the common case simple.
const COMPACT_MIN_ARENA: usize = 1 << 16;

/// Operation tags for the computed cache. Discriminants start at 1 because
/// 0 marks an empty cache slot.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum CacheOp {
    Ite = 1,
    Constrain = 2,
    Restrict = 3,
}

/// One direct-mapped computed-cache slot: `(op, f, g, h) -> r`, raw edge
/// bits. `tag` packs the manager's cache generation (high 24 bits) with the
/// op (low 8 bits); `op == 0` or a stale generation means empty, which makes
/// [`BddManager::clear_cache`] an O(1) generation bump instead of a
/// multi-megabyte memset.
#[derive(Clone, Copy)]
struct CacheEntry {
    tag: u32,
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

const EMPTY_CACHE_ENTRY: CacheEntry = CacheEntry {
    tag: 0,
    f: 0,
    g: 0,
    h: 0,
    r: 0,
};

/// Largest generation representable in a [`CacheEntry`] tag; the next
/// `clear_cache` past this wraps to 0 with a real memset.
const MAX_CACHE_GEN: u32 = 0x00FF_FFFF;

/// One slot of a unique subtable. The `(high, low)` key is stored inline so
/// a probe never has to chase the node id into the arena (that dependent
/// load is the expensive part of open addressing); `id == EMPTY_SLOT` marks
/// an empty slot.
#[derive(Clone, Copy)]
struct USlot {
    high: u32,
    low: u32,
    id: u32,
}

const EMPTY_USLOT: USlot = USlot {
    high: 0,
    low: 0,
    id: EMPTY_SLOT,
};

/// One per-variable unique subtable: open-addressed, power-of-two, linear
/// probing, inline `(high, low)` keys; `var` is implied by which subtable
/// the entry sits in.
#[derive(Default)]
struct Subtable {
    slots: Vec<USlot>,
    len: u32,
}

impl Subtable {
    /// Doubles capacity (or allocates the initial table) and rehashes.
    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() {
            8
        } else {
            self.slots.len() * 2
        };
        let mask = new_cap - 1;
        let mut new_slots = vec![EMPTY_USLOT; new_cap];
        for s in self.slots.iter().filter(|s| s.id != EMPTY_SLOT) {
            let mut i = unique_hash(s.high, s.low) as usize & mask;
            while new_slots[i].id != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            new_slots[i] = *s;
        }
        self.slots = new_slots;
    }

    /// Empties the table and right-sizes it for `expected` entries (GC's
    /// rebuild path). Re-allocating to fit the survivors matters: after a
    /// garbage-heavy wave the table can be orders of magnitude larger than
    /// the live set, and both the memset and the sparse re-fill of a
    /// burst-sized table were dominating collection time.
    fn reset_for(&mut self, expected: u32) {
        let cap = (2 * expected as usize + 2).next_power_of_two().max(8);
        if cap * 4 <= self.slots.len() {
            // Grossly oversized for the survivors: re-allocate snug. Keeping
            // moderate headroom (the `else` arm) avoids re-growing a table
            // that will be refilled to a similar size next wave.
            self.slots = vec![EMPTY_USLOT; cap];
        } else {
            self.slots.fill(EMPTY_USLOT);
        }
        self.len = 0;
    }

    /// Inserts an entry known not to be present (GC rebuild path).
    fn insert_unchecked(&mut self, id: u32, high: Bdd, low: Bdd) {
        if (self.len as usize + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = unique_hash(high.0, low.0) as usize & mask;
        while self.slots[i].id != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = USlot {
            high: high.0,
            low: low.0,
            id,
        };
        self.len += 1;
    }
}

/// Splits an already-fetched node into its cofactors (pushing the complement
/// mark down) when `at_level` holds, else duplicates the edge.
#[inline]
fn split_at(f: Bdd, n: Node, at_level: bool) -> (Bdd, Bdd) {
    if !at_level {
        (f, f)
    } else if f.is_complement() {
        (!n.high, !n.low)
    } else {
        (n.high, n.low)
    }
}

#[inline]
fn unique_hash(high: u32, low: u32) -> u64 {
    let mut x = (u64::from(high) << 32 | u64::from(low)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 29)
}

#[inline]
fn cache_hash(op: CacheOp, f: Bdd, g: Bdd, h: Bdd) -> u64 {
    cache_hash_raw(op as u32, f.0, g.0, h.0)
}

#[inline]
fn cache_hash_raw(op: u32, f: u32, g: u32, h: u32) -> u64 {
    let lo = u64::from(f) << 32 | u64::from(g);
    let hi = u64::from(h) << 8 | u64::from(op);
    let mut x = lo.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hi.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 31;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 29)
}

/// Statistics the verification engine reports per case (the raw material of
/// the paper's Table 1).
///
/// The operation counters (`ite_calls`, `cache_hits`, `cache_misses`,
/// `nodes_created`, `unique_probes`, `cache_evictions`) are plain `u64`
/// increments on paths that already hash into the unique/computed tables, so
/// keeping them always-on costs nothing measurable; the telemetry layer in
/// `fmaverify::trace` surfaces them per case.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Number of nodes currently allocated (live arena slots, including dead
    /// nodes not yet collected but excluding free-list slots).
    pub allocated: usize,
    /// High-water mark of allocated nodes since creation or the last
    /// [`BddManager::reset_peak`].
    pub peak_allocated: usize,
    /// Number of garbage collections performed.
    pub gc_runs: u64,
    /// Recursive apply (`ite`/`constrain`/`restrict`) calls.
    pub ite_calls: u64,
    /// Computed-table lookups that hit.
    pub cache_hits: u64,
    /// Computed-table lookups that missed (and were recomputed).
    pub cache_misses: u64,
    /// Total nodes ever created (survives garbage collection, unlike
    /// `allocated`).
    pub nodes_created: u64,
    /// Computed-cache stores that overwrote a live entry with a different
    /// key (the cost of the direct-mapped single-probe policy).
    pub cache_evictions: u64,
    /// Unique-table slot inspections (≥ one per `mk_node`; the excess over
    /// `nodes_created` measures probe-chain length, i.e. table health).
    pub unique_probes: u64,
    /// Nodes returned to the free list by garbage collection.
    pub gc_freed: u64,
    /// Occupied computed-cache slots right now (gauge, not a counter).
    pub cache_occupancy: usize,
}

/// A reduced ordered BDD manager with complement edges.
///
/// # Examples
///
/// ```
/// use fmaverify_bdd::BddManager;
///
/// let mut mgr = BddManager::new();
/// let x = mgr.new_var();
/// let y = mgr.new_var();
/// let fx = mgr.var_bdd(x);
/// let fy = mgr.var_bdd(y);
/// let xy = mgr.and(fx, fy);
/// let yx = mgr.and(fy, fx);
/// assert_eq!(xy, yx); // canonical
/// ```
pub struct BddManager {
    /// Flat arena; slot 0 is the terminal, free slots carry [`FREE_VAR`].
    nodes: Vec<Node>,
    /// Free arena slots, reused before the arena grows.
    free: Vec<u32>,
    /// Per-variable unique subtables, indexed by variable index.
    subtables: Vec<Subtable>,
    /// Direct-mapped computed cache (power-of-two length, grows on occupancy
    /// up to `cache_limit`).
    cache: Vec<CacheEntry>,
    cache_mask: usize,
    cache_filled: usize,
    cache_limit: usize,
    /// Current cache generation; entries tagged with an older generation are
    /// logically empty (see [`BddManager::clear_cache`]).
    cache_gen: u32,
    /// `var2level[v]` is the current level of variable `v` (0 = top).
    var2level: Vec<u32>,
    /// `level2var[l]` is the variable at level `l`.
    level2var: Vec<u32>,
    stats: BddStats,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("vars", &self.var2level.len())
            .field("allocated", &(self.nodes.len() - self.free.len()))
            .finish()
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager with no variables and the default computed
    /// cache ([`DEFAULT_CACHE_SIZE`] entries).
    pub fn new() -> BddManager {
        Self::with_cache_size(DEFAULT_CACHE_SIZE)
    }

    /// Creates an empty manager whose computed cache may grow to `entries`
    /// slots (rounded up to a power of two, at least [`MIN_CACHE_SIZE`]).
    ///
    /// The cache is direct-mapped and lossy: a smaller cap trades recompute
    /// work for memory, it never affects results. It starts at
    /// 4096 entries (or the cap, if smaller) and doubles whenever
    /// three quarters of it fill, so the hot probe range tracks the working
    /// set instead of thrashing TLBs on a huge cold array.
    pub fn with_cache_size(entries: usize) -> BddManager {
        let limit = entries.next_power_of_two().max(MIN_CACHE_SIZE);
        let cap = limit.min(INITIAL_CACHE_SIZE);
        BddManager {
            // Slot 0 is the terminal node.
            nodes: vec![Node {
                var: TERMINAL_VAR,
                high: Bdd::TRUE,
                low: Bdd::TRUE,
            }],
            free: Vec::new(),
            subtables: Vec::new(),
            cache: vec![EMPTY_CACHE_ENTRY; cap],
            cache_mask: cap - 1,
            cache_filled: 0,
            cache_limit: limit,
            cache_gen: 0,
            var2level: Vec::new(),
            level2var: Vec::new(),
            stats: BddStats {
                allocated: 1,
                peak_allocated: 1,
                ..BddStats::default()
            },
        }
    }

    /// Number of slots in the computed cache.
    pub fn cache_capacity(&self) -> usize {
        self.cache.len()
    }

    /// Creates a fresh variable at the bottom of the current order.
    pub fn new_var(&mut self) -> BddVar {
        let v = self.var2level.len() as u32;
        assert!(v < FREE_VAR, "variable index space exhausted");
        self.var2level.push(v);
        self.level2var.push(v);
        self.subtables.push(Subtable::default());
        BddVar(v)
    }

    /// Creates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<BddVar> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables in the manager.
    pub fn num_vars(&self) -> usize {
        self.var2level.len()
    }

    /// Returns the current level of a variable (0 = top of the order).
    pub fn level_of(&self, v: BddVar) -> usize {
        self.var2level[v.index()] as usize
    }

    /// Returns the variable currently at `level` (0 = top of the order).
    pub fn var_at_level(&self, level: usize) -> BddVar {
        BddVar(self.level2var[level])
    }

    /// Returns manager statistics.
    pub fn stats(&self) -> BddStats {
        let mut s = self.stats;
        s.allocated = self.nodes.len() - self.free.len();
        // The allocated count only shrinks at a collection (which refreshes
        // the high-water mark first), so folding the current size in here
        // keeps `peak_allocated` exact without bookkeeping in `mk_node`.
        s.peak_allocated = s.peak_allocated.max(s.allocated);
        s.cache_occupancy = self.cache_filled;
        s
    }

    /// Resets the peak-allocated-node high-water mark to the current size.
    pub fn reset_peak(&mut self) {
        self.stats.peak_allocated = self.nodes.len() - self.free.len();
    }

    #[inline]
    fn level_of_ref(&self, f: Bdd) -> u32 {
        let var = self.nodes[f.id() as usize].var;
        if var == TERMINAL_VAR {
            u32::MAX
        } else {
            self.var2level[var as usize]
        }
    }

    /// The BDD for a single variable.
    pub fn var_bdd(&mut self, v: BddVar) -> Bdd {
        assert!(v.index() < self.num_vars(), "unknown variable {v:?}");
        self.mk_node(v.0, Bdd::TRUE, Bdd::FALSE)
    }

    /// The BDD for the negation of a single variable.
    pub fn nvar_bdd(&mut self, v: BddVar) -> Bdd {
        !self.var_bdd(v)
    }

    /// Creates (or finds) the node `if var then high else low`, applying the
    /// reduction and complement-edge canonicalization rules.
    ///
    /// Insert-or-get on the open-addressed subtable: one linear-probe scan
    /// either finds the node or lands on the empty slot where it belongs.
    fn mk_node(&mut self, var: u32, high: Bdd, low: Bdd) -> Bdd {
        if high == low {
            return high;
        }
        // Canonical form: the high edge is never complemented.
        let (high, low, out_complement) = if high.is_complement() {
            (!high, !low, true)
        } else {
            (high, low, false)
        };
        // Keep the load factor at or below 1/2: linear probing degrades
        // sharply past that, and the inline-keyed slots are only 12 bytes.
        let table = &mut self.subtables[var as usize];
        if (table.len as usize + 1) * 2 > table.slots.len() {
            table.grow();
        }
        let mask = table.slots.len() - 1;
        let mut i = unique_hash(high.0, low.0) as usize & mask;
        let mut probes = 1u64;
        loop {
            let s = table.slots[i];
            if s.id == EMPTY_SLOT {
                break;
            }
            if s.high == high.0 && s.low == low.0 {
                self.stats.unique_probes += probes;
                return Bdd::new(s.id, out_complement);
            }
            probes += 1;
            i = (i + 1) & mask;
        }
        self.stats.unique_probes += probes;
        // Not present: allocate (reusing a free slot if any) and fill the
        // probe's final empty slot.
        let node = Node { var, high, low };
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                let id = self.nodes.len() as u32;
                assert!(id < FREE_VAR, "arena exhausted");
                self.nodes.push(node);
                id
            }
        };
        let table = &mut self.subtables[var as usize];
        table.slots[i] = USlot {
            high: high.0,
            low: low.0,
            id,
        };
        table.len += 1;
        self.stats.nodes_created += 1;
        Bdd::new(id, out_complement)
    }

    /// Single-probe computed-cache lookup.
    #[inline]
    fn cache_get(&mut self, op: CacheOp, f: Bdd, g: Bdd, h: Bdd) -> Option<Bdd> {
        let tag = self.cache_gen << 8 | op as u32;
        let e = &self.cache[cache_hash(op, f, g, h) as usize & self.cache_mask];
        if e.tag == tag && e.f == f.0 && e.g == g.0 && e.h == h.0 {
            self.stats.cache_hits += 1;
            Some(Bdd(e.r))
        } else {
            self.stats.cache_misses += 1;
            None
        }
    }

    /// Single-probe computed-cache store (replace on collision).
    #[inline]
    fn cache_put(&mut self, op: CacheOp, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        let tag = self.cache_gen << 8 | op as u32;
        let e = &mut self.cache[cache_hash(op, f, g, h) as usize & self.cache_mask];
        let was_live = e.tag & 0xFF != 0 && e.tag >> 8 == self.cache_gen;
        if !was_live {
            self.cache_filled += 1;
        } else if e.tag != tag || e.f != f.0 || e.g != g.0 || e.h != h.0 {
            self.stats.cache_evictions += 1;
        }
        *e = CacheEntry {
            tag,
            f: f.0,
            g: g.0,
            h: h.0,
            r: r.0,
        };
        // Grow at half full: a direct-mapped table's conflict-eviction rate
        // climbs steeply past that point. (Conflict-eviction *pressure* is
        // deliberately not a growth trigger: churn-heavy workloads evict
        // constantly on entries that are never re-queried, and growing for
        // them only inflates the per-collection cache scan.)
        if self.cache_filled * 2 >= self.cache.len() && self.cache.len() < self.cache_limit {
            self.grow_cache();
        }
    }

    /// Doubles the computed cache (up to its cap), re-placing live entries.
    fn grow_cache(&mut self) {
        let new_cap = (self.cache.len() * 2).min(self.cache_limit);
        let mask = new_cap - 1;
        let mut new_cache = vec![EMPTY_CACHE_ENTRY; new_cap];
        let gen = self.cache_gen;
        let mut filled = 0usize;
        for e in &self.cache {
            if e.tag & 0xFF == 0 || e.tag >> 8 != gen {
                continue;
            }
            let i = cache_hash_raw(e.tag & 0xFF, e.f, e.g, e.h) as usize & mask;
            if new_cache[i].tag & 0xFF == 0 {
                filled += 1;
            }
            new_cache[i] = *e;
        }
        self.cache = new_cache;
        self.cache_mask = mask;
        self.cache_filled = filled;
    }

    /// If-then-else: `ite(f, g, h) = (f AND g) OR (NOT f AND h)`.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal and simplification rules.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        let (f, g, h) = {
            let mut g = g;
            let mut h = h;
            if g == f {
                g = Bdd::TRUE;
            } else if g == !f {
                g = Bdd::FALSE;
            }
            if h == f {
                h = Bdd::FALSE;
            } else if h == !f {
                h = Bdd::TRUE;
            }
            (f, g, h)
        };
        if g.is_true() && h.is_false() {
            return f;
        }
        if g.is_false() && h.is_true() {
            return !f;
        }
        // Commutation canonicalization (the standard CUDD rules): for the
        // commutative forms, put a canonical operand in the test position so
        // `and(a, b)` and `and(b, a)` probe the same cache slot. Comparing
        // node ids (not levels) is enough for canonicity — both ways of
        // writing the commuted call compare the same id pair — and avoids
        // two dependent arena loads per call on the and/or fast path. In
        // each arm both compared operands are non-constant, with distinct
        // ids (the constant and `±f` combinations were all resolved above).
        let (f, g, h) = {
            let (mut f, mut g, mut h) = (f, g, h);
            if g.is_true() {
                // OR: ite(f, 1, h) == ite(h, 1, f).
                if h.id() < f.id() {
                    std::mem::swap(&mut f, &mut h);
                }
            } else if h.is_false() {
                // AND: ite(f, g, 0) == ite(g, f, 0).
                if g.id() < f.id() {
                    std::mem::swap(&mut f, &mut g);
                }
            } else if g.is_false() {
                // NOR-ish: ite(f, 0, h) == ite(!h, 0, !f).
                if h.id() < f.id() {
                    let (nf, nh) = (!f, !h);
                    f = nh;
                    h = nf;
                }
            } else if h.is_true() {
                // Implication: ite(f, g, 1) == ite(!g, !f, 1).
                if g.id() < f.id() {
                    let (nf, ng) = (!f, !g);
                    f = ng;
                    g = nf;
                }
            } else if h == !g {
                // XNOR: ite(f, g, !g) == ite(g, f, !f).
                if g.id() < f.id() {
                    std::mem::swap(&mut f, &mut g);
                    h = !g;
                }
            }
            (f, g, h)
        };
        // Normalize: first argument positive, and use !ite(f,!g,!h) to make g
        // positive, improving cache hit rates.
        let (f, g, h, out_neg) = if f.is_complement() {
            (!f, h, g, false)
        } else {
            (f, g, h, false)
        };
        let (f, g, h, out_neg) = if g.is_complement() {
            (f, !g, !h, !out_neg)
        } else {
            (f, g, h, out_neg)
        };
        self.stats.ite_calls += 1;
        if let Some(r) = self.cache_get(CacheOp::Ite, f, g, h) {
            return if out_neg { !r } else { r };
        }
        let (lf, nf) = self.level_node(f);
        let (lg, ng) = self.level_node(g);
        let (lh, nh) = self.level_node(h);
        let level = lf.min(lg).min(lh);
        let (f1, f0) = split_at(f, nf, lf == level);
        let (g1, g0) = split_at(g, ng, lg == level);
        let (h1, h0) = split_at(h, nh, lh == level);
        let t = self.ite(f1, g1, h1);
        let e = self.ite(f0, g0, h0);
        let var = self.level2var[level as usize];
        let r = self.mk_node(var, t, e);
        self.cache_put(CacheOp::Ite, f, g, h, r);
        if out_neg {
            !r
        } else {
            r
        }
    }

    /// Cofactors of `f` with respect to the variable at `level`, pushing
    /// complement marks down.
    #[inline]
    fn cofactors(&self, f: Bdd, level: u32) -> (Bdd, Bdd) {
        let (lf, n) = self.level_node(f);
        split_at(f, n, lf == level)
    }

    /// Fetches `f`'s node and level in one arena access: the recursive
    /// operators need both, and loading the node twice (once for the level
    /// comparison, once for the cofactors) doubled the random-access
    /// traffic that dominates large traversals.
    #[inline]
    fn level_node(&self, f: Bdd) -> (u32, Node) {
        let n = self.nodes[f.id() as usize];
        let level = if n.var == TERMINAL_VAR {
            u32::MAX
        } else {
            self.var2level[n.var as usize]
        };
        (level, n)
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, !g, g)
    }

    /// Equivalence (xnor).
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, !g)
    }

    /// Implication `f -> g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::TRUE)
    }

    /// Coudert–Madre generalized cofactor ("constrain").
    ///
    /// `constrain(f, c)` agrees with `f` on every assignment satisfying `c`
    /// and is free to take any value elsewhere; the particular choice maps
    /// each off-care-set point to its "nearest" care-set point, which makes
    /// the operator distribute over gates: `g(a,b)|c = g(a|c, b|c)`. This is
    /// the property the paper exploits to case-split the *implementation* FPU
    /// using constraints defined only on the *reference* FPU.
    ///
    /// # Panics
    /// Panics if `c` is the constant false (the care set must be non-empty).
    pub fn constrain(&mut self, f: Bdd, c: Bdd) -> Bdd {
        assert!(!c.is_false(), "constrain care-set must be non-empty");
        self.constrain_rec(f, c)
    }

    fn constrain_rec(&mut self, f: Bdd, c: Bdd) -> Bdd {
        if c.is_true() || f.is_const() {
            return f;
        }
        if c == f {
            return Bdd::TRUE;
        }
        if c == !f {
            return Bdd::FALSE;
        }
        self.stats.ite_calls += 1;
        if let Some(r) = self.cache_get(CacheOp::Constrain, f, c, Bdd::FALSE) {
            return r;
        }
        let (lf, nf) = self.level_node(f);
        let (lc, nc) = self.level_node(c);
        let level = lf.min(lc);
        let (c1, c0) = split_at(c, nc, lc == level);
        let (f1, f0) = split_at(f, nf, lf == level);
        let r = if c1.is_false() {
            self.constrain_rec(f0, c0)
        } else if c0.is_false() {
            self.constrain_rec(f1, c1)
        } else {
            let t = self.constrain_rec(f1, c1);
            let e = self.constrain_rec(f0, c0);
            let var = self.level2var[level as usize];
            self.mk_node(var, t, e)
        };
        self.cache_put(CacheOp::Constrain, f, c, Bdd::FALSE, r);
        r
    }

    /// The "restrict" minimization operator (sibling substitution).
    ///
    /// Like [`BddManager::constrain`] it agrees with `f` on the care set `c`,
    /// but it additionally drops variables of `c` that do not appear in `f`,
    /// which often yields smaller results. Unlike `constrain` it does **not**
    /// distribute over gates; the paper evaluates such "more aggressive
    /// minimization algorithms" and finds them slower overall (our
    /// `minimize_ablation` bench reproduces that comparison).
    ///
    /// # Panics
    /// Panics if `c` is the constant false.
    pub fn restrict(&mut self, f: Bdd, c: Bdd) -> Bdd {
        assert!(!c.is_false(), "restrict care-set must be non-empty");
        self.restrict_rec(f, c)
    }

    fn restrict_rec(&mut self, f: Bdd, c: Bdd) -> Bdd {
        if c.is_true() || f.is_const() {
            return f;
        }
        if c == f {
            return Bdd::TRUE;
        }
        if c == !f {
            return Bdd::FALSE;
        }
        self.stats.ite_calls += 1;
        if let Some(r) = self.cache_get(CacheOp::Restrict, f, c, Bdd::FALSE) {
            return r;
        }
        let f_level = self.level_of_ref(f);
        let c_level = self.level_of_ref(c);
        let r = if c_level < f_level {
            // Top variable of `c` does not constrain `f` at this level:
            // quantify it out of the care set.
            let (c1, c0) = self.cofactors(c, c_level);
            let c_up = self.or(c1, c0);
            self.restrict_rec(f, c_up)
        } else {
            let level = f_level.min(c_level);
            let (c1, c0) = self.cofactors(c, level);
            let (f1, f0) = self.cofactors(f, level);
            if c1.is_false() {
                self.restrict_rec(f0, c0)
            } else if c0.is_false() {
                self.restrict_rec(f1, c1)
            } else {
                let t = self.restrict_rec(f1, c1);
                let e = self.restrict_rec(f0, c0);
                let var = self.level2var[level as usize];
                self.mk_node(var, t, e)
            }
        };
        self.cache_put(CacheOp::Restrict, f, c, Bdd::FALSE, r);
        r
    }

    /// Evaluates `f` under a complete assignment (indexed by variable index).
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        let mut parity = false;
        loop {
            parity ^= cur.is_complement();
            let n = self.nodes[cur.id() as usize];
            if n.var == TERMINAL_VAR {
                return !parity; // terminal is TRUE
            }
            cur = if assignment[n.var as usize] {
                n.high
            } else {
                n.low
            };
        }
    }

    /// Returns some satisfying assignment of `f` as `(var, value)` pairs for
    /// the variables on the chosen path, or `None` if `f` is unsatisfiable.
    ///
    /// Variables not mentioned may take either value.
    pub fn pick_sat(&self, f: Bdd) -> Option<Vec<(BddVar, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        let mut parity = false;
        loop {
            parity ^= cur.is_complement();
            let n = self.nodes[cur.id() as usize];
            if n.var == TERMINAL_VAR {
                debug_assert!(!parity, "walk reached FALSE");
                return Some(path);
            }
            // Prefer the branch that is not constant-false (under parity).
            let high_false = n.high == if parity { Bdd::TRUE } else { Bdd::FALSE };
            if !high_false {
                path.push((BddVar(n.var), true));
                cur = n.high;
            } else {
                path.push((BddVar(n.var), false));
                cur = n.low;
            }
        }
    }

    /// Counts the satisfying assignments of `f` over all `num_vars`
    /// variables, as an `f64` (exact for counts below 2^53).
    pub fn sat_count(&self, f: Bdd) -> f64 {
        let mut memo: FastMap<Bdd, f64> = FastMap::default();
        let total_levels = self.num_vars() as u32;
        self.sat_count_rec(f, 0, total_levels, &mut memo)
    }

    fn sat_count_rec(
        &self,
        f: Bdd,
        level: u32,
        total_levels: u32,
        memo: &mut FastMap<Bdd, f64>,
    ) -> f64 {
        let f_level = self.level_of_ref(f).min(total_levels);
        let skipped = f_level - level;
        let base = if f.is_true() {
            1.0
        } else if f.is_false() {
            0.0
        } else {
            if let Some(&c) = memo.get(&f) {
                return c * 2f64.powi(skipped as i32);
            }
            let (f1, f0) = self.cofactors(f, f_level);
            let c1 = self.sat_count_rec(f1, f_level + 1, total_levels, memo);
            let c0 = self.sat_count_rec(f0, f_level + 1, total_levels, memo);
            let c = c1 + c0;
            memo.insert(f, c);
            c
        };
        base * 2f64.powi(skipped as i32)
    }

    /// Returns the set of variables `f` depends on.
    pub fn support(&self, f: Bdd) -> Vec<BddVar> {
        let mut seen = vec![false; self.nodes.len()];
        let mut vars = vec![false; self.num_vars()];
        let mut stack = vec![f.id()];
        while let Some(id) = stack.pop() {
            if seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            let n = self.nodes[id as usize];
            if n.var == TERMINAL_VAR {
                continue;
            }
            vars[n.var as usize] = true;
            stack.push(n.high.id());
            stack.push(n.low.id());
        }
        vars.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| BddVar(i as u32))
            .collect()
    }

    /// Counts the nodes reachable from the given roots (shared nodes counted
    /// once). The terminal is included.
    pub fn reachable_count(&self, roots: &[Bdd]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = roots.iter().map(|r| r.id()).collect();
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            count += 1;
            let n = self.nodes[id as usize];
            if n.var != TERMINAL_VAR {
                stack.push(n.high.id());
                stack.push(n.low.id());
            }
        }
        count
    }

    /// Garbage-collects nodes unreachable from `roots`.
    ///
    /// Normally collection is **in place**: dead arena slots go on the free
    /// list (ids are stable, so the returned roots equal the input roots),
    /// subtables are rebuilt from the live nodes, and computed-cache entries
    /// whose operands and result all survive are **kept** — only entries
    /// touching dead nodes are dropped. That is the right trade for the
    /// engine's dominant pattern (a long-lived working set re-derived across
    /// collections).
    ///
    /// When a large arena is almost entirely dead (under 1/8 of its slots
    /// live), the collector instead **compacts** into a dense fresh arena:
    /// ids are remapped (use the returned roots) and the computed cache is
    /// dropped — nearly all of it referenced dead nodes anyway — in exchange
    /// for the cache locality of a working set packed into a small
    /// contiguous region. Handles other than the returned roots become
    /// invalid on either path.
    pub fn gc(&mut self, roots: &[Bdd]) -> Vec<Bdd> {
        self.stats.gc_runs += 1;
        // The arena is about to shrink: capture the high-water mark now
        // (`mk_node` does not track it per-allocation).
        let allocated = self.nodes.len() - self.free.len();
        self.stats.peak_allocated = self.stats.peak_allocated.max(allocated);
        let mut mark = vec![false; self.nodes.len()];
        mark[0] = true; // terminal survives in place
        let mut live = 1usize;
        let mut stack: Vec<u32> = Vec::new();
        for r in roots {
            if !mark[r.id() as usize] {
                mark[r.id() as usize] = true;
                live += 1;
                stack.push(r.id());
            }
        }
        while let Some(id) = stack.pop() {
            let n = self.nodes[id as usize];
            if n.var == TERMINAL_VAR {
                continue;
            }
            for child in [n.high.id(), n.low.id()] {
                if !mark[child as usize] {
                    mark[child as usize] = true;
                    live += 1;
                    stack.push(child);
                }
            }
        }

        if self.nodes.len() >= COMPACT_MIN_ARENA && live * 8 <= self.nodes.len() {
            return self.gc_compact(roots, allocated);
        }

        // Sweep: free every unmarked, not-already-free slot, counting the
        // survivors per variable so the subtables can be rebuilt right-sized.
        let mut freed = 0u64;
        let mut live_per_var = vec![0u32; self.subtables.len()];
        for (id, &is_live) in mark.iter().enumerate().skip(1) {
            let n = &mut self.nodes[id];
            if is_live {
                live_per_var[n.var as usize] += 1;
            } else if n.var != FREE_VAR {
                n.var = FREE_VAR;
                self.free.push(id as u32);
                freed += 1;
            }
        }
        self.stats.gc_freed += freed;

        // Rebuild the subtables from the live nodes (this is the only place
        // entries are ever removed, which keeps inserts tombstone-free).
        for (var, t) in self.subtables.iter_mut().enumerate() {
            t.reset_for(live_per_var[var]);
        }
        for id in 1..self.nodes.len() {
            let n = self.nodes[id];
            if n.var != FREE_VAR {
                self.subtables[n.var as usize].insert_unchecked(id as u32, n.high, n.low);
            }
        }

        // Preserve computed-cache entries that reference only live nodes
        // (pruned in place — re-placing survivors costs more than clearing
        // the dead when most entries survive).
        let gen = self.cache_gen;
        let mut survivors = 0usize;
        for e in &mut self.cache {
            if e.tag & 0xFF == 0 || e.tag >> 8 != gen {
                continue;
            }
            let live = mark[(e.f >> 1) as usize]
                && mark[(e.g >> 1) as usize]
                && mark[(e.h >> 1) as usize]
                && mark[(e.r >> 1) as usize];
            if live {
                survivors += 1;
            } else {
                *e = EMPTY_CACHE_ENTRY;
                self.cache_filled -= 1;
            }
        }
        // Scanning the cache is the recurring cost of preservation, so the
        // table must not stay burst-sized forever: when it is ≥ 4× larger
        // than the survivors warrant, compact into a right-sized table.
        // (Only grossly oversized tables are worth the re-placement pass.)
        let floor = INITIAL_CACHE_SIZE.min(self.cache.len());
        let target = (survivors.max(1) * 2)
            .next_power_of_two()
            .clamp(floor, self.cache.len());
        if target * 4 <= self.cache.len() {
            let mask = target - 1;
            let mut new_cache = vec![EMPTY_CACHE_ENTRY; target];
            let mut filled = 0usize;
            for e in &self.cache {
                if e.tag & 0xFF == 0 {
                    continue;
                }
                let i = cache_hash_raw(e.tag & 0xFF, e.f, e.g, e.h) as usize & mask;
                if new_cache[i].tag & 0xFF == 0 {
                    filled += 1;
                }
                new_cache[i] = *e;
            }
            self.cache = new_cache;
            self.cache_mask = mask;
            self.cache_filled = filled;
        }

        roots.to_vec()
    }

    /// Compacting collection for a mostly-dead arena: depth-first copies the
    /// live graph into a dense fresh arena (children before parents, so
    /// traversal order matches memory order), rebuilds the subtables
    /// right-sized, and drops the computed cache (its entries name the old
    /// ids). Returns the remapped roots.
    fn gc_compact(&mut self, roots: &[Bdd], allocated: usize) -> Vec<Bdd> {
        let old_nodes = std::mem::take(&mut self.nodes);
        let mut remap: Vec<u32> = vec![u32::MAX; old_nodes.len()];
        remap[0] = 0;
        self.nodes.push(old_nodes[0]);

        // Recursion depth is bounded by the number of levels (children sit
        // strictly below their parent), not by the node count.
        fn copy(id: u32, old: &[Node], remap: &mut [u32], new_nodes: &mut Vec<Node>) -> u32 {
            if remap[id as usize] != u32::MAX {
                return remap[id as usize];
            }
            let n = old[id as usize];
            let h = copy(n.high.id(), old, remap, new_nodes);
            let l = copy(n.low.id(), old, remap, new_nodes);
            let new_id = new_nodes.len() as u32;
            new_nodes.push(Node {
                var: n.var,
                high: Bdd::new(h, n.high.is_complement()),
                low: Bdd::new(l, n.low.is_complement()),
            });
            remap[id as usize] = new_id;
            new_id
        }

        let new_roots: Vec<Bdd> = roots
            .iter()
            .map(|r| {
                let id = copy(r.id(), &old_nodes, &mut remap, &mut self.nodes);
                Bdd::new(id, r.is_complement())
            })
            .collect();

        self.free.clear();
        self.stats.gc_freed += (allocated - self.nodes.len()) as u64;

        let mut live_per_var = vec![0u32; self.subtables.len()];
        for n in self.nodes.iter().skip(1) {
            live_per_var[n.var as usize] += 1;
        }
        for (var, t) in self.subtables.iter_mut().enumerate() {
            t.reset_for(live_per_var[var]);
        }
        for id in 1..self.nodes.len() {
            let n = self.nodes[id];
            self.subtables[n.var as usize].insert_unchecked(id as u32, n.high, n.low);
        }

        self.clear_cache();
        new_roots
    }

    /// Clears the operation caches (useful to bound memory between cases).
    ///
    /// O(1): bumps the cache generation so every entry is logically stale;
    /// slots are physically reset only when the 24-bit generation wraps.
    pub fn clear_cache(&mut self) {
        if self.cache_gen == MAX_CACHE_GEN {
            self.cache_gen = 0;
            self.cache.fill(EMPTY_CACHE_ENTRY);
        } else {
            self.cache_gen += 1;
        }
        self.cache_filled = 0;
    }

    /// Checks the kernel invariants, returning a description of the first
    /// violation: subtable entries point at live nodes of the right variable,
    /// no `(var, high, low)` triple appears twice, subtable lengths match,
    /// nodes are canonical (uncomplemented high edge, children strictly below
    /// their parent's level), and the free list is consistent. Intended for
    /// tests; cost is linear in the arena.
    pub fn validate(&self) -> Result<(), String> {
        let mut in_table = vec![false; self.nodes.len()];
        for (var, t) in self.subtables.iter().enumerate() {
            let mut filled = 0u32;
            for s in t.slots.iter().filter(|s| s.id != EMPTY_SLOT) {
                filled += 1;
                let id = s.id;
                let n = self
                    .nodes
                    .get(id as usize)
                    .ok_or_else(|| format!("subtable {var} points past arena: {id}"))?;
                if n.var != var as u32 {
                    return Err(format!("subtable {var} holds node {id} with var {}", n.var));
                }
                if s.high != n.high.0 || s.low != n.low.0 {
                    return Err(format!("subtable {var} inline key for node {id} is stale"));
                }
                if std::mem::replace(&mut in_table[id as usize], true) {
                    return Err(format!("node {id} appears in a subtable twice"));
                }
                if n.high.is_complement() {
                    return Err(format!("node {id} has a complemented high edge"));
                }
                if n.high == n.low {
                    return Err(format!("node {id} is redundant (high == low)"));
                }
                let level = self.var2level[var];
                for child in [n.high, n.low] {
                    let cn = &self.nodes[child.id() as usize];
                    if cn.var == FREE_VAR {
                        return Err(format!("node {id} points at freed node {}", child.id()));
                    }
                    if cn.var != TERMINAL_VAR && self.var2level[cn.var as usize] <= level {
                        return Err(format!("node {id} child {} not below it", child.id()));
                    }
                }
            }
            if filled != t.len {
                return Err(format!(
                    "subtable {var} len {} but {filled} filled slots",
                    t.len
                ));
            }
        }
        let mut triples: FastMap<(u32, Bdd, Bdd), u32> = FastMap::default();
        for (id, n) in self.nodes.iter().enumerate().skip(1) {
            if n.var == FREE_VAR {
                if in_table[id] {
                    return Err(format!("freed node {id} still in a subtable"));
                }
                continue;
            }
            if !in_table[id] {
                return Err(format!("live node {id} missing from its subtable"));
            }
            if let Some(prev) = triples.insert((n.var, n.high, n.low), id as u32) {
                return Err(format!(
                    "duplicate triple (var {}, {:?}, {:?}) at nodes {prev} and {id}",
                    n.var, n.high, n.low
                ));
            }
        }
        let mut free_seen = vec![false; self.nodes.len()];
        for &id in &self.free {
            if self.nodes[id as usize].var != FREE_VAR {
                return Err(format!("free-list slot {id} is not freed"));
            }
            if std::mem::replace(&mut free_seen[id as usize], true) {
                return Err(format!("slot {id} on the free list twice"));
            }
        }
        let filled = self
            .cache
            .iter()
            .filter(|e| e.tag & 0xFF != 0 && e.tag >> 8 == self.cache_gen)
            .count();
        if filled != self.cache_filled {
            return Err(format!(
                "cache_filled {} but {filled} occupied slots",
                self.cache_filled
            ));
        }
        Ok(())
    }

    /// Rebuilds the given roots under a new variable order and garbage
    /// collects everything else. `order` must be a permutation of all
    /// variables (top level first). Returns the remapped roots; all other
    /// handles become invalid.
    ///
    /// This is an apply-based reordering: sound by construction, but more
    /// expensive than in-place sifting. The verification methodology follows
    /// the paper in preferring good *static* orders, so reordering is only
    /// exercised by the ordering-ablation experiment.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of the manager's variables.
    pub fn set_order(&mut self, order: &[BddVar], roots: &[Bdd]) -> Vec<Bdd> {
        assert_eq!(
            order.len(),
            self.num_vars(),
            "order must cover all variables"
        );
        let mut seen = vec![false; self.num_vars()];
        for v in order {
            assert!(
                !std::mem::replace(&mut seen[v.index()], true),
                "duplicate variable in order"
            );
        }
        // Copy old structure out, reset the arena, then rebuild bottom-up
        // under the new order (the memo walks only nodes reachable from the
        // roots, so stale free slots in the snapshot are never read).
        let allocated = self.nodes.len() - self.free.len();
        self.stats.peak_allocated = self.stats.peak_allocated.max(allocated);
        let old_nodes = std::mem::take(&mut self.nodes);
        for (level, v) in order.iter().enumerate() {
            self.var2level[v.index()] = level as u32;
            self.level2var[level] = v.0;
        }
        self.nodes.push(Node {
            var: TERMINAL_VAR,
            high: Bdd::TRUE,
            low: Bdd::TRUE,
        });
        self.free.clear();
        for t in &mut self.subtables {
            t.slots = Vec::new();
            t.len = 0;
        }
        self.clear_cache();

        let mut memo: FastMap<u32, Bdd> = FastMap::default();
        let mut new_roots = Vec::with_capacity(roots.len());
        for r in roots {
            let body = self.rebuild_rec(r.id(), &old_nodes, &mut memo);
            new_roots.push(if r.is_complement() { !body } else { body });
        }
        new_roots
    }

    fn rebuild_rec(&mut self, id: u32, old_nodes: &[Node], memo: &mut FastMap<u32, Bdd>) -> Bdd {
        if let Some(&r) = memo.get(&id) {
            return r;
        }
        let n = old_nodes[id as usize];
        let r = if n.var == TERMINAL_VAR {
            Bdd::TRUE
        } else {
            let h_body = self.rebuild_rec(n.high.id(), old_nodes, memo);
            let h = if n.high.is_complement() {
                !h_body
            } else {
                h_body
            };
            let l_body = self.rebuild_rec(n.low.id(), old_nodes, memo);
            let l = if n.low.is_complement() {
                !l_body
            } else {
                l_body
            };
            let v = self.var_bdd(BddVar(n.var));
            self.ite(v, h, l)
        };
        memo.insert(id, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (BddManager, Vec<Bdd>) {
        let mut mgr = BddManager::new();
        let vars = mgr.new_vars(n);
        let bdds = vars.iter().map(|&v| mgr.var_bdd(v)).collect();
        (mgr, bdds)
    }

    #[test]
    fn constants() {
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::FALSE.is_false());
        assert_eq!(!Bdd::TRUE, Bdd::FALSE);
        assert!(Bdd::TRUE.is_const() && Bdd::FALSE.is_const());
    }

    #[test]
    fn basic_algebra() {
        let (mut m, v) = setup(3);
        let (a, b, c) = (v[0], v[1], v[2]);
        assert_eq!(m.and(a, Bdd::TRUE), a);
        assert_eq!(m.and(a, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(a, !a), Bdd::TRUE);
        assert_eq!(m.and(a, !a), Bdd::FALSE);
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab, ba);
        let lhs = {
            let bc = m.or(b, c);
            m.and(a, bc)
        };
        let rhs = {
            let ab = m.and(a, b);
            let ac = m.and(a, c);
            m.or(ab, ac)
        };
        assert_eq!(lhs, rhs); // distributivity, canonical
        let x1 = m.xor(a, b);
        let x2 = m.xor(b, a);
        assert_eq!(x1, x2);
        let xn = m.xnor(a, b);
        assert_eq!(xn, !x1);
    }

    #[test]
    fn de_morgan() {
        let (mut m, v) = setup(2);
        let and = m.and(v[0], v[1]);
        let or_neg = m.or(!v[0], !v[1]);
        assert_eq!(!and, or_neg);
    }

    #[test]
    fn eval_and_pick_sat() {
        let (mut m, v) = setup(3);
        let ab = m.and(v[0], v[1]);
        let f = m.or(ab, v[2]);
        assert!(m.eval(f, &[true, true, false]));
        assert!(!m.eval(f, &[true, false, false]));
        assert!(m.eval(f, &[false, false, true]));
        let sat = m.pick_sat(f).expect("satisfiable");
        let mut assignment = [false; 3];
        for (var, val) in sat {
            assignment[var.index()] = val;
        }
        assert!(m.eval(f, &assignment));
        assert!(m.pick_sat(Bdd::FALSE).is_none());
    }

    #[test]
    fn sat_count() {
        let (mut m, v) = setup(3);
        let f = m.and(v[0], v[1]);
        assert_eq!(m.sat_count(f), 2.0); // v2 free
        assert_eq!(m.sat_count(Bdd::TRUE), 8.0);
        assert_eq!(m.sat_count(Bdd::FALSE), 0.0);
        let x = m.xor(v[0], v[2]);
        assert_eq!(m.sat_count(x), 4.0);
    }

    #[test]
    fn support_set() {
        let (mut m, v) = setup(4);
        let f = {
            let ab = m.and(v[0], v[2]);
            m.or(ab, v[3])
        };
        let s = m.support(f);
        let idx: Vec<usize> = s.iter().map(|v| v.index()).collect();
        assert_eq!(idx, vec![0, 2, 3]);
    }

    #[test]
    fn constrain_agrees_on_care_set() {
        let (mut m, v) = setup(4);
        let f = {
            let t = m.xor(v[0], v[1]);
            m.or(t, v[2])
        };
        let c = m.and(v[1], v[3]);
        let fc = m.constrain(f, c);
        // For every assignment in c, f and fc agree.
        for bits in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            if m.eval(c, &a) {
                assert_eq!(m.eval(f, &a), m.eval(fc, &a));
            }
        }
        // constrain(f, c) AND c == f AND c
        let lhs = m.and(fc, c);
        let rhs = m.and(f, c);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn constrain_distributes_over_gates() {
        // g(a, b)|c == g(a|c, b|c) — the key soundness property for
        // constraint-based case splitting during symbolic simulation.
        let (mut m, v) = setup(4);
        let a = m.xor(v[0], v[1]);
        let b = m.or(v[1], v[2]);
        let c = {
            let t = m.xnor(v[0], v[3]);
            m.or(t, v[2])
        };
        let g = m.and(a, b);
        let lhs = m.constrain(g, c);
        let ac = m.constrain(a, c);
        let bc = m.constrain(b, c);
        let rhs = m.and(ac, bc);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn restrict_agrees_on_care_set() {
        let (mut m, v) = setup(4);
        let f = {
            let t = m.and(v[0], v[1]);
            m.or(t, v[2])
        };
        let c = m.xnor(v[1], v[3]);
        let fr = m.restrict(f, c);
        for bits in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            if m.eval(c, &a) {
                assert_eq!(m.eval(f, &a), m.eval(fr, &a));
            }
        }
    }

    #[test]
    fn gc_preserves_roots() {
        let (mut m, v) = setup(4);
        let f = {
            let t = m.and(v[0], v[1]);
            m.or(t, v[2])
        };
        let g = m.xor(v[2], v[3]);
        // Create garbage.
        for i in 0..3 {
            let t = m.and(v[i], v[i + 1]);
            let _ = m.xor(t, v[0]);
        }
        let before = m.stats().allocated;
        let roots = m.gc(&[f, g]);
        let after = m.stats().allocated;
        assert!(after <= before);
        for bits in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let old_f = bits & 1 == 1 && bits >> 1 & 1 == 1 || bits >> 2 & 1 == 1;
            let old_g = (bits >> 2 & 1 == 1) != (bits >> 3 & 1 == 1);
            assert_eq!(m.eval(roots[0], &a), old_f);
            assert_eq!(m.eval(roots[1], &a), old_g);
        }
    }

    #[test]
    fn gc_keeps_ids_stable_and_validates() {
        let (mut m, v) = setup(6);
        let f = {
            let t = m.and(v[0], v[1]);
            let u = m.xor(v[2], v[3]);
            m.or(t, u)
        };
        // Garbage over the other variables.
        for i in 0..5 {
            let t = m.or(v[i], v[i + 1]);
            let _ = m.xnor(t, v[0]);
        }
        let roots = m.gc(&[f]);
        // In-place GC: ids are stable, roots come back unchanged.
        assert_eq!(roots, vec![f]);
        m.validate().expect("kernel invariants after gc");
        let freed = m.stats().gc_freed;
        assert!(freed > 0, "garbage should have been freed");
    }

    #[test]
    fn gc_preserves_live_cache_entries() {
        // The acceptance bar for the overhaul: after a GC, re-running an ITE
        // whose operands and result survived must hit the computed cache
        // immediately, not recompute.
        let (mut m, v) = setup(4);
        let a = m.xor(v[0], v[1]);
        let b = m.or(v[2], v[3]);
        let f = m.and(a, b);
        // Garbage that will die at the GC.
        for i in 0..3 {
            let t = m.and(v[i], v[i + 1]);
            let _ = m.xor(t, v[3]);
        }
        let _ = m.gc(&[a, b, f]);
        let before = m.stats();
        let f2 = m.and(a, b);
        let after = m.stats();
        assert_eq!(f2, f);
        assert_eq!(after.cache_hits, before.cache_hits + 1, "post-GC cache hit");
        assert_eq!(after.cache_misses, before.cache_misses, "no recompute");
        assert!(before.cache_occupancy > 0, "cache survived the GC");
    }

    #[test]
    fn free_slots_are_reused() {
        let (mut m, v) = setup(4);
        let keep = m.and(v[0], v[1]);
        let _garbage = {
            let t = m.xor(v[2], v[3]);
            m.or(t, v[0])
        };
        let _ = m.gc(&[keep]);
        let arena_after_gc = m.stats().allocated + m_free_len(&m);
        let freed = m.stats().gc_freed;
        assert!(freed > 0);
        // New nodes land in freed slots before the arena grows. (The old
        // handles died with the GC; rebuild from the variables.)
        let c = m.var_bdd(BddVar::from_index(2));
        let d = m.var_bdd(BddVar::from_index(3));
        let _new = m.xnor(c, d);
        let arena_now = m.stats().allocated + m_free_len(&m);
        assert_eq!(arena_now, arena_after_gc, "arena did not grow");
        m.validate().expect("kernel invariants after reuse");
    }

    fn m_free_len(m: &BddManager) -> usize {
        m.free.len()
    }

    #[test]
    fn commuted_operands_share_cache_slots() {
        let (mut m, v) = setup(4);
        let f = m.xor(v[0], v[1]);
        let g = m.or(v[2], v[3]);
        let fg = m.and(f, g);
        let h0 = m.stats().cache_hits;
        let gf = m.and(g, f); // commuted: canonicalizes to the same probe
        assert_eq!(fg, gf);
        assert!(m.stats().cache_hits > h0, "commuted AND should cache-hit");
        let fg_or = m.or(f, g);
        let h1 = m.stats().cache_hits;
        let gf_or = m.or(g, f);
        assert_eq!(fg_or, gf_or);
        assert!(m.stats().cache_hits > h1, "commuted OR should cache-hit");
        let fx = m.xnor(f, g);
        let h2 = m.stats().cache_hits;
        let gx = m.xnor(g, f);
        assert_eq!(fx, gx);
        assert!(m.stats().cache_hits > h2, "commuted XNOR should cache-hit");
    }

    #[test]
    fn tiny_cache_evicts_but_stays_correct() {
        let mut m = BddManager::with_cache_size(1); // rounds up to MIN_CACHE_SIZE
        assert_eq!(m.cache_capacity(), MIN_CACHE_SIZE);
        let vars = m.new_vars(12);
        let v: Vec<Bdd> = vars.iter().map(|&x| m.var_bdd(x)).collect();
        let mut acc = Bdd::FALSE;
        for i in 0..10 {
            let t = m.and(v[i], v[i + 1]);
            let u = m.xor(t, v[(i + 2) % 12]);
            acc = m.or(acc, u);
        }
        let s = m.stats();
        assert!(s.cache_evictions > 0, "a 1K cache must evict under churn");
        assert!(s.cache_occupancy <= MIN_CACHE_SIZE);
        m.validate().expect("kernel invariants with tiny cache");
        // Same function in a roomy manager: results agree pointwise.
        let mut big = BddManager::new();
        let bvars = big.new_vars(12);
        let bv: Vec<Bdd> = bvars.iter().map(|&x| big.var_bdd(x)).collect();
        let mut bacc = Bdd::FALSE;
        for i in 0..10 {
            let t = big.and(bv[i], bv[i + 1]);
            let u = big.xor(t, bv[(i + 2) % 12]);
            bacc = big.or(bacc, u);
        }
        for bits in 0..4096u32 {
            let a: Vec<bool> = (0..12).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.eval(acc, &a), big.eval(bacc, &a));
        }
    }

    #[test]
    fn unique_probes_and_occupancy_reported() {
        let (mut m, v) = setup(6);
        let mut acc = Bdd::TRUE;
        for w in &v {
            acc = m.and(acc, *w);
        }
        let s = m.stats();
        assert!(s.unique_probes >= s.nodes_created, "≥ one probe per node");
        assert!(s.cache_occupancy > 0);
        m.validate().expect("kernel invariants");
    }

    #[test]
    fn fast_hasher_chunks_match_length_tagging() {
        fn hash_bytes(b: &[u8]) -> u64 {
            let mut h = FastHasher::default();
            h.write(b);
            h.finish()
        }
        // 8-byte chunking: a 16-byte slice equals two word writes.
        let mut manual = FastHasher::default();
        manual.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        manual.write_u64(u64::from_le_bytes(*b"ijklmnop"));
        assert_eq!(hash_bytes(b"abcdefghijklmnop"), manual.finish());
        // Trailing zeros are distinguished from absent bytes.
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn reorder_preserves_function() {
        let (mut m, v) = setup(4);
        let f = {
            let t = m.xor(v[0], v[2]);
            let u = m.and(v[1], v[3]);
            m.or(t, u)
        };
        let new_order: Vec<BddVar> = [3usize, 1, 2, 0]
            .iter()
            .map(|&i| BddVar::from_index(i))
            .collect();
        let roots = m.set_order(&new_order, &[f]);
        assert_eq!(m.level_of(BddVar::from_index(3)), 0);
        for bits in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let expect = ((bits & 1 == 1) != (bits >> 2 & 1 == 1))
                || (bits >> 1 & 1 == 1 && bits >> 3 & 1 == 1);
            assert_eq!(m.eval(roots[0], &a), expect);
        }
        m.validate().expect("kernel invariants after reorder");
    }

    #[test]
    fn interleaved_order_keeps_equality_small() {
        // The classic motivation for the paper's static orders: comparing two
        // n-bit vectors is linear with interleaved variables, exponential with
        // blocked variables.
        let n = 8;
        let mut m = BddManager::new();
        let vars = m.new_vars(2 * n);
        // Interleaved: a0 b0 a1 b1 ...
        let mut eq = Bdd::TRUE;
        for i in 0..n {
            let a = m.var_bdd(vars[2 * i]);
            let b = m.var_bdd(vars[2 * i + 1]);
            let bit_eq = m.xnor(a, b);
            eq = m.and(eq, bit_eq);
        }
        let interleaved = m.reachable_count(&[eq]);

        let mut m2 = BddManager::new();
        let vars2 = m2.new_vars(2 * n);
        // Blocked: a0..a7 b0..b7
        let mut eq2 = Bdd::TRUE;
        for i in 0..n {
            let a = m2.var_bdd(vars2[i]);
            let b = m2.var_bdd(vars2[n + i]);
            let bit_eq = m2.xnor(a, b);
            eq2 = m2.and(eq2, bit_eq);
        }
        let blocked = m2.reachable_count(&[eq2]);
        assert!(
            interleaved * 4 < blocked,
            "interleaved {interleaved} should be much smaller than blocked {blocked}"
        );
    }
}
