package tsdb

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ruru/internal/hashx"
)

// Options configures a DB.
type Options struct {
	// ShardDuration is the time width of one shard (default 1h of the
	// data's own clock).
	ShardDuration int64
	// Retention drops shards whose end is older than this much behind the
	// newest point (0 = keep everything).
	Retention int64
	// Stripes is the number of independently locked partitions the series
	// space is hashed across (default 8, rounded up to a power of two).
	// Concurrent writers contend only when they touch series in the same
	// stripe; Stripes = 1 restores the old single-global-lock behaviour.
	Stripes int
	// Rollups enables multi-resolution downsampling: every write
	// additionally feeds each listed tier's pre-aggregates, and Execute
	// serves aligned windowed queries from the coarsest usable tier (see
	// rollup.go). Nil disables rollups. Open sorts the tiers finest-first
	// and drops invalid (non-positive width) or duplicate-width entries.
	Rollups []RollupTier
	// Persist enables durable storage (write-ahead log + checkpointed
	// snapshots under Persist.Dir, restored on open — see persist.go).
	// Requires OpenDB: enabling persistence can fail with I/O errors that
	// the error-free Open cannot report. Nil keeps the DB in-memory.
	Persist *PersistOptions
	// QueryCache, when > 0, bounds a shape-keyed result cache in front of
	// Execute in bytes (LRU-evicted; see qcache.go). Repeated dashboard
	// queries whose window merely advanced re-aggregate only the buckets
	// past the cached high-water mark; results stay bit-exact with an
	// uncached Execute. Zero disables the cache.
	QueryCache int64
}

// DB is the time-series database. Safe for concurrent use. Writes to
// different series take different stripe locks, so concurrent writers (the
// pipeline's sink workers) do not serialize on one global mutex.
type DB struct {
	opts    Options
	stripes []*stripe
	mask    uint32

	maxT atomic.Int64 // newest point time seen (retention horizon anchor)
	// sweepRet is the smallest positive retention across raw storage and
	// the rollup tiers (0 when nothing expires): it decides how often
	// maybeSweepAll must run.
	sweepRet int64
	// sweptShard is the last horizon shard index for which every stripe
	// was purged: writes to one stripe must still retire expired shards
	// in stripes that have gone idle.
	sweptShard atomic.Int64
	closed     atomic.Bool
	written    atomic.Uint64
	dropped    atomic.Uint64 // points dropped by retention at write time

	// qcache is the Execute result cache (nil unless Options.QueryCache).
	// The write paths notify it of backfills (points older than the frozen
	// slack) so served frozen buckets provably describe unchanged data.
	qcache *queryCache

	// Durability (nil / uncontended on in-memory databases). Writers hold
	// commitMu.RLock from their WAL append through their in-memory apply;
	// Checkpoint takes it exclusively for the instant of the WAL rotation
	// so the checkpoint cut is exact: state == every record below the
	// rotated-to segment. Lock order is commitMu, then stripe mu, then
	// dirMu.
	persist  *persister
	commitMu sync.RWMutex

	// Series directory: every series identity and ref ever created,
	// published copy-on-write behind dir so queries and WriteBatchRef
	// resolve them lock-free (see ref.go). The backing arrays are guarded
	// by dirMu; a write creating a brand-new series or ref publishes it
	// under stripe mu → dirMu, which is why dirMu is last in the lock
	// order.
	dir       atomic.Pointer[seriesDir]
	dirMu     sync.Mutex
	identsBuf []*seriesIdent
	refsBuf   []*refState

	closeOnce sync.Once
	closeErr  error
}

// stripe is one lock-striped partition: a full shard map for the series
// that hash into it, plus per-tier rollup shard maps for the same series.
// A series' raw points and its tier pre-aggregates always live in the same
// stripe and are only touched under mu.
type stripe struct {
	mu     sync.RWMutex
	shards map[int64]*shard // keyed by shard start time
	order  []int64          // sorted shard starts
	tiers  []tierStripe     // one per Options.Rollups entry
	// idents indexes the series that hash into this stripe by series key;
	// each ident lists its refs. WriteBatch and Ref resolve a point to its
	// ref here, under the stripe lock they already hold.
	idents map[string]*seriesIdent
}

// shard holds all series for one time slice (within one stripe). Queries
// do not scan shards for series identity any more — the copy-on-write
// directory (ref.go) knows which shards every series lives in — so shards
// no longer carry an inverted tag index.
type shard struct {
	start, end int64
	series     map[string]*series
}

// series is one (measurement, tagset) column store. Fields are positional
// (fkeys[i] names cols[i]): the working field set of a series is a handful
// of keys, so a linear scan beats a map hop, gives the ref path stable
// column indices to cache, and makes snapshot iteration deterministic.
// name/tags alias the owning ident's strings.
type series struct {
	name  string
	tags  []Tag
	ident *seriesIdent
	times []int64
	fkeys []string
	cols  [][]float64
}

// findCol returns the index of the named column, or -1.
func (sr *series) findCol(key string) int {
	for i, k := range sr.fkeys {
		if k == key {
			return i
		}
	}
	return -1
}

// addCol appends a new column padded with NaN for every existing row and
// returns its index. Caller holds the owning stripe's lock.
func (sr *series) addCol(key string) int {
	col := make([]float64, len(sr.times))
	for i := range col {
		col[i] = nan
	}
	sr.fkeys = append(sr.fkeys, key)
	sr.cols = append(sr.cols, col)
	return len(sr.cols) - 1
}

// Open creates an empty in-memory DB. It panics if opts.Persist is set:
// persistence performs I/O that can fail, which only OpenDB can report.
func Open(opts Options) *DB {
	if opts.Persist != nil {
		panic("tsdb: Options.Persist requires OpenDB")
	}
	db, _ := OpenDB(opts)
	return db
}

// OpenDB creates a DB. With opts.Persist set it owns the data directory
// (refusing a second opener via the lockfile), restores the newest
// checkpoint, replays the WAL tail through the normal write path —
// rebuilding rollup tiers and re-applying retention — and then logs every
// subsequent Write/WriteBatch ahead of applying it. A torn final WAL
// record (crash mid-append) is tolerated and reported in PersistStats;
// corruption anywhere earlier fails the open. Without Persist it is
// identical to Open.
func OpenDB(opts Options) (*DB, error) {
	if opts.ShardDuration <= 0 {
		opts.ShardDuration = int64(3600) * 1e9
	}
	if opts.Stripes <= 0 {
		opts.Stripes = 8
	}
	opts.Rollups = normalizeRollups(opts.Rollups)
	n := 1
	for n < opts.Stripes {
		n <<= 1
	}
	db := &DB{opts: opts, stripes: make([]*stripe, n), mask: uint32(n - 1)}
	if opts.Retention > 0 {
		db.sweepRet = opts.Retention
	}
	for _, t := range opts.Rollups {
		if t.Retention > 0 && (db.sweepRet == 0 || t.Retention < db.sweepRet) {
			db.sweepRet = t.Retention
		}
	}
	db.sweptShard.Store(math.MinInt64)
	if opts.QueryCache > 0 {
		db.qcache = newQueryCache(opts.QueryCache)
	}
	db.dir.Store(&seriesDir{})
	for i := range db.stripes {
		st := &stripe{shards: make(map[int64]*shard), idents: make(map[string]*seriesIdent)}
		st.tiers = make([]tierStripe, len(opts.Rollups))
		for t := range st.tiers {
			st.tiers[t].shards = make(map[int64]*tierShard)
		}
		db.stripes[i] = st
	}
	if opts.Persist != nil {
		// openPersist restores + replays with db.persist still nil (so
		// recovery writes do not re-log themselves), then arms db.persist
		// before starting the flusher/checkpointer goroutines.
		if err := openPersist(db, *opts.Persist); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// stripeIndex hashes a series key onto its stripe.
func stripeIndex(key string) uint32 {
	return hashx.FNV1a32(key)
}

// WriteStats returns (points written, points dropped by retention).
func (db *DB) WriteStats() (written, dropped uint64) {
	return db.written.Load(), db.dropped.Load()
}

// advanceMaxT raises the global newest-point clock to t and returns the
// current maximum.
func (db *DB) advanceMaxT(t int64) int64 {
	for {
		cur := db.maxT.Load()
		if t <= cur {
			return cur
		}
		if db.maxT.CompareAndSwap(cur, t) {
			return t
		}
	}
}

// Write stores one point: WriteBatch of that point alone.
func (db *DB) Write(p *Point) error {
	_, err := db.WriteBatch([]Point{*p})
	return err
}

// WriteBatch stores all points, taking each involved stripe lock exactly
// once — the sink-stage fast path that amortizes synchronization across a
// whole burst. Tags are sorted in place. Points older than the retention
// horizon are dropped. A point failing CheckFields (no fields, or a field
// key named twice) fails the entire batch before anything is written.
// On a persistent DB the batch is logged to the WAL as one record before
// it is applied (fsync per Options.Persist.Fsync); a WAL append failure
// fails the write, so recoverable state never runs behind what queries can
// see. ErrClosedDB from a concurrent Close, however, may leave the batch
// partially applied (whole stripes are written atomically, the batch as a
// whole is not): applied reports how many points were handled (stored or
// retention-dropped) so callers can account for the remainder exactly —
// do not retry the batch.
//
// Each point resolves under its stripe lock to the ref for its series and
// ordered field keys (created on first sight, see resolveLocked) and is
// then applied exactly as WriteBatchRef applies it.
func (db *DB) WriteBatch(pts []Point) (applied int, err error) {
	if len(pts) == 0 {
		return 0, nil
	}
	// Refuse closed before touching maxT or retention: a straggler write
	// must not advance the horizon (and purge shards) on a DB that is
	// being snapshotted for shutdown.
	if db.closed.Load() {
		return 0, ErrClosedDB
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	// The batch's series keys live back to back in one pooled arena,
	// addressed by offsets; stripe ids are hashed straight off the arena
	// bytes. Nothing here allocates once the scratch has warmed up.
	keys := sc.keys[:0]
	offs := append(sc.offs[:0], 0)
	sids := sc.sids[:0]
	batchMax := int64(math.MinInt64)
	for i := range pts {
		p := &pts[i]
		if err := CheckFields(p.Fields); err != nil {
			return 0, err
		}
		sortTags(p.Tags)
		keys = appendSeriesKey(keys, p.Name, p.Tags)
		sids = append(sids, hashx.FNV1a32Bytes(keys[offs[i]:])&db.mask)
		offs = append(offs, len(keys))
		batchMax = max(batchMax, p.Time)
	}
	sc.keys, sc.offs, sc.sids = keys, offs, sids
	if pr := db.persist; pr != nil {
		// Hold commitMu.RLock from the WAL append through the in-memory
		// apply: the checkpoint cut depends on no write being between the
		// two when it rotates the log. One record (and, under FsyncAlways,
		// at most one group-committed fsync) for the whole batch.
		db.commitMu.RLock()
		defer db.commitMu.RUnlock()
		if db.closed.Load() {
			return 0, ErrClosedDB
		}
		if err := pr.logBatch(pts); err != nil {
			return 0, err
		}
	}
	maxT := db.advanceMaxT(batchMax)
	db.maybeSweepAll(maxT)
	for s, st := range db.stripes {
		if !slices.Contains(sids, uint32(s)) {
			continue
		}
		st.mu.Lock()
		if db.closed.Load() {
			st.mu.Unlock()
			return applied, ErrClosedDB
		}
		for i := range pts {
			if sids[i] != uint32(s) {
				continue
			}
			p := &pts[i]
			rs := db.resolveLocked(st, p.Name, p.Tags, keys[offs[i]:offs[i+1]], p.Fields)
			rp := RefPoint{Ref: rs.ref, Time: p.Time, Vals: sc.vals[:0]}
			for _, f := range p.Fields {
				rp.Vals = append(rp.Vals, f.Value)
			}
			sc.vals = rp.Vals
			db.writeRefLocked(st, rs, &rp, maxT)
			applied++
		}
		st.mu.Unlock()
	}
	return applied, nil
}

// shardAt returns st's raw shard starting at start, creating it if absent.
// Caller holds st.mu.
func (db *DB) shardAt(st *stripe, start int64) *shard {
	sh, ok := st.shards[start]
	if !ok {
		sh = &shard{
			start:  start,
			end:    start + db.opts.ShardDuration,
			series: make(map[string]*series),
		}
		st.shards[start] = sh
		st.order = insertSorted(st.order, start)
	}
	return sh
}

// WriteLine parses one line-protocol record and stores it.
func (db *DB) WriteLine(line string) error {
	var p Point
	if err := ParseLine(line, &p); err != nil {
		return err
	}
	return db.Write(&p)
}

// maybeSweepAll retires expired shards from EVERY stripe whenever the
// tightest retention horizon (raw or any rollup tier) crosses into a new
// shard slot. Write-path retention only purges the stripe being written,
// so without this sweep a stripe whose series go idle would keep its
// expired shards (and serve them to queries) forever. The CAS bounds the
// sweep to one writer per horizon shard — at most once per ShardDuration
// of data time.
func (db *DB) maybeSweepAll(maxT int64) {
	if db.sweepRet <= 0 || db.closed.Load() {
		return
	}
	hs := floorDiv(maxT-db.sweepRet, db.opts.ShardDuration)
	for {
		cur := db.sweptShard.Load()
		if hs <= cur {
			return
		}
		if db.sweptShard.CompareAndSwap(cur, hs) {
			break
		}
	}
	for _, st := range db.stripes {
		st.mu.Lock()
		// Recheck under the lock: a Close (e.g. ahead of a shutdown
		// Snapshot) must stop an in-flight sweep from purging shards the
		// snapshot still expects to dump.
		if db.closed.Load() {
			st.mu.Unlock()
			return
		}
		db.enforceRetentionLocked(st, maxT)
		st.mu.Unlock()
	}
}

// enforceRetentionLocked drops whole shards beyond the raw horizon and
// whole tier shards beyond each tier's own horizon from one stripe.
// Caller holds st.mu.
func (db *DB) enforceRetentionLocked(st *stripe, maxT int64) {
	if len(st.tiers) > 0 {
		db.enforceTierRetentionLocked(st, maxT)
	}
	if db.opts.Retention <= 0 {
		return
	}
	horizon := maxT - db.opts.Retention
	for len(st.order) > 0 {
		start := st.order[0]
		sh := st.shards[start]
		if sh.end > horizon {
			break
		}
		// Unpublish every dropped series placement from the directory so
		// lock-free readers stop finding the pruned shard.
		for _, sr := range sh.series {
			sr.ident.dropRawShard(start)
		}
		delete(st.shards, start)
		st.order = st.order[1:]
	}
}

// ShardCount returns the number of live time shards (a time slice present
// in several stripes counts once).
func (db *DB) ShardCount() int {
	seen := map[int64]struct{}{}
	for _, st := range db.stripes {
		st.mu.RLock()
		for start := range st.shards {
			seen[start] = struct{}{}
		}
		st.mu.RUnlock()
	}
	return len(seen)
}

// SeriesCount returns the number of distinct series across shards.
func (db *DB) SeriesCount() int {
	n := 0
	for _, st := range db.stripes {
		st.mu.RLock()
		for _, sh := range st.shards {
			n += len(sh.series)
		}
		st.mu.RUnlock()
	}
	return n
}

// TagValues returns the sorted distinct values of a tag key within
// [start, end), for dashboard pickers. Entirely lock-free: it walks the
// copy-on-write directory and each series' published raw-shard placements,
// never touching a stripe lock.
func (db *DB) TagValues(key string, start, end int64) []string {
	d := db.dir.Load()
	seen := map[string]bool{}
	for _, id := range d.idents {
		v, ok := "", false
		for _, t := range id.tags {
			if t.Key == key {
				v, ok = t.Value, true
				break
			}
		}
		if !ok || seen[v] {
			continue
		}
		for _, is := range id.rawShards() {
			if is.end > start && is.start < end {
				seen[v] = true
				break
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Close marks the DB closed; subsequent writes fail. Taking every stripe
// lock once acts as a barrier: writes in flight finish, later ones fail.
// On a persistent DB it then stops the background flusher/checkpointer,
// flushes and fsyncs the WAL (so a clean shutdown loses nothing regardless
// of fsync policy) and releases the data-directory lock; the returned
// error is the first failure in that sequence (always nil in-memory).
// Close is idempotent: repeated calls return the first call's result.
func (db *DB) Close() error {
	db.closeOnce.Do(func() { db.closeErr = db.doClose() })
	return db.closeErr
}

func (db *DB) doClose() error {
	db.closed.Store(true)
	// Barrier for persistent writers between WAL append and apply…
	db.commitMu.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	db.commitMu.Unlock()
	// …and for everything already applying under a stripe lock.
	for _, st := range db.stripes {
		st.mu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		st.mu.Unlock()
	}
	if db.persist != nil {
		return db.persist.close()
	}
	return nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func insertSorted(s []int64, v int64) []int64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
