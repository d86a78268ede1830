package fleet

import "jenga/internal/core"

// Store is the cluster-wide KV store: one Directory spanning N replica
// managers plus the peer-transfer path. Attach wires a replica's
// manager into the directory (its tier notifies stores and evictions
// through a TierObserver); Fetch runs the miss path — extend the local
// prefix with peer-held blocks, export the pages from their holders,
// import them into the local tier — and reports the tokens and wire
// bytes moved, so the engine can charge the peer link. Every holder
// batch's outcome is counted in StoreStats and, for a batch that
// delivered nothing, in the destination tier's stats, so partial
// results are observable instead of silent.
//
// Fetch runs only in the cluster's barrier sections, one call at a
// time, so the store owns its scratch outright: the holder batches are
// reused from one Fetch to the next, and a warm Fetch allocates
// nothing.
type Store struct {
	dir *Directory
	// mgrs[r] is replica r's manager, nil until Attach wires it.
	mgrs []tierManager
	// peers[dst] is dst's presence oracle — the directory's lowest
	// holder other than dst — built once at Attach.
	peers []core.PeerPresence
	// Fetch scratch: the (holder, group) batches in first-seen order,
	// each keeping its hash list's array.
	batches []batch
	// faults, when set, decides whether each transfer attempt fails;
	// attempts bounds the per-batch retry loop (≥ 1; 1 = no retry,
	// the historical behavior). Both are written only between runs
	// and read only from the serial arrival loop.
	faults   TransferFaults
	attempts int
	stats    StoreStats
}

// tierManager is a manager with a host tier the store can move pages
// through: Lookup from the plain surface, the transfer path from the
// TierManager capability.
type tierManager interface {
	core.Manager
	core.TierManager
}

// TransferFaults decides whether one peer-transfer attempt from
// replica src to replica dst fails (timeout, link error) — the fault
// injection seam. chaos.Cursor satisfies it structurally.
type TransferFaults interface {
	FailTransfer(src, dst int) bool
}

// StoreStats aggregates transfer outcomes across every Fetch since
// the store was built — the retry-bound and failure-visibility
// surface for cluster results.
type StoreStats struct {
	// Fetched/Skipped/Failed count holder batches by outcome: imported;
	// skipped, the holder having nothing left to export by transfer time
	// (tier churn beat the fetch); failed, every transfer attempt having
	// faulted. Retries counts failed attempts that were retried.
	Fetched, Skipped, Failed, Retries int64
}

// batch is the blocks one Fetch wants from one (holder, group).
type batch struct {
	src    int
	group  string
	hashes []uint64
}

// FetchReport is what one Store.Fetch moved: Tokens is the prefix
// length gained over the local lookup (0 when nothing landed), Bytes
// the total peer-link wire volume to charge, failed attempts included.
type FetchReport struct {
	Tokens int
	Bytes  int64
}

// NewStore returns a store for n replicas with an empty directory.
func NewStore(n int) *Store {
	return &Store{
		dir:      NewDirectory(),
		mgrs:     make([]tierManager, n),
		peers:    make([]core.PeerPresence, n),
		attempts: 1,
	}
}

// SetFaults installs the transfer fault decider and the per-batch
// attempt bound (values < 1 mean 1 — no retry). Pass (nil, 1) to
// clear. Recovery-enabled clusters raise attempts so transient faults
// retry with the wasted wire time charged as backoff; the final
// failure falls back to local recompute.
func (s *Store) SetFaults(f TransferFaults, attempts int) {
	if attempts < 1 {
		attempts = 1
	}
	s.faults = f
	s.attempts = attempts
}

// Stats snapshots the store's aggregate transfer counters.
func (s *Store) Stats() StoreStats { return s.stats }

// Crash invalidates every directory entry naming replica as a holder
// — its tier died with its process, so each entry is dangling; peers
// must stop trying to fetch from it. Returns the number of entries
// dropped. The replica's manager stays attached: after a restart its
// cold tier re-registers new content through the same observer.
func (s *Store) Crash(replica int) int {
	return s.dir.InvalidateHolder(replica)
}

// Attach wires replica's manager into the store. Managers without the
// TierManager capability (or without a configured host tier) simply
// never contribute: Attach is a no-op and reports false.
func (s *Store) Attach(replica int, mgr core.Manager) bool {
	tm, ok := mgr.(tierManager)
	if !ok || replica < 0 || replica >= len(s.mgrs) {
		return false
	}
	tm.SetTierObserver(&dirObserver{dir: s.dir, replica: replica})
	s.mgrs[replica] = tm
	s.peers[replica] = func(group string, hash uint64) (int, bool) {
		return s.dir.Lookup(group, hash, replica)
	}
	return true
}

// Fetch runs the fleet miss path for a sequence about to be admitted
// on replica dst: if peers extend the locally cached prefix, export
// the needed pages from their holders and import them into dst's host
// tier, so dst's own claim restores them like locally spilled pages.
// The report carries the prefix tokens gained over the local lookup and
// the wire bytes to charge (timed-out attempts burn wire time too: the
// pages were in flight when the transfer died); each holder batch's
// outcome — fetched, skipped or failed — lands in the store's stats.
// Fetch runs inside one barrier section, so every export and its import
// see the same tiers: no eviction, crash or restore runs between them.
// The directory names only attached replicas, since only Attach
// installs the observer that registers blocks. Batches that skip or
// fail fall back to local recompute naturally: the destination simply
// never sees their pages.
//
//jenga:hotpath
func (s *Store) Fetch(dst int, seq *core.Sequence, now core.Tick) FetchReport {
	var rep FetchReport
	if dst < 0 || dst >= len(s.mgrs) || s.mgrs[dst] == nil {
		return rep
	}
	tm := s.mgrs[dst]
	p, fetch := tm.LookupFleet(seq, s.peers[dst])
	if len(fetch) == 0 {
		return rep
	}
	local := tm.Lookup(seq)
	if p <= local {
		return rep
	}
	// Batch the fetch list by (source replica, group) in first-seen
	// order so each holder exports once per group. The holder is the one
	// the lookup's oracle named: nothing touches the directory between
	// that probe and this point.
	batches := s.batches[:0]
	for _, fb := range fetch {
		i := 0
		for i < len(batches) && (batches[i].src != fb.Holder || batches[i].group != fb.Group) {
			i++
		}
		if i == len(batches) {
			// The scratch entry past len, if any, lends its hash array.
			var hashes []uint64
			if i < cap(batches) {
				hashes = batches[:i+1][i].hashes[:0]
			}
			batches = append(batches, batch{src: fb.Holder, group: fb.Group, hashes: hashes})
		}
		batches[i].hashes = append(batches[i].hashes, fb.Hash)
	}
	s.batches = batches
	var skipped, failed, imported int64
	for i := range batches {
		k := &batches[i]
		ps, ok := s.mgrs[k.src].ExportPrefix(k.group, k.hashes)
		if !ok {
			skipped++
			continue
		}
		for attempt := 1; ; attempt++ {
			if s.faults == nil || !s.faults.FailTransfer(k.src, dst) {
				_, b := tm.ImportPrefix(ps, now)
				rep.Bytes += b
				imported += b
				s.stats.Fetched++
				break
			}
			rep.Bytes += ps.Bytes()
			if attempt >= s.attempts {
				failed++
				break
			}
			s.stats.Retries++
		}
	}
	s.stats.Skipped += skipped
	s.stats.Failed += failed
	// Surface non-delivering holders in the destination tier's stats:
	// a partial fetch must be observable, not silent.
	if skipped > 0 || failed > 0 {
		tm.NotePeerFetch(skipped, failed)
	}
	if imported > 0 {
		rep.Tokens = p - local
	}
	return rep
}

// dirObserver adapts one replica's tier notifications onto the shared
// directory.
type dirObserver struct {
	dir     *Directory
	replica int
}

func (o *dirObserver) TierStored(group string, hashes []uint64) {
	o.dir.Register(o.replica, group, hashes)
}

func (o *dirObserver) TierEvicted(group string, hashes []uint64) {
	o.dir.Invalidate(o.replica, group, hashes)
}
