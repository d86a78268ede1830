package fleet

import "jenga/internal/core"

// Store is the cluster-wide KV store: one Directory spanning N replica
// managers plus the peer-transfer path. Attach wires a replica's
// manager into the directory (its tier notifies stores and evictions
// through a TierObserver); Fetch runs the miss path — extend the local
// prefix with peer-held blocks, export the pages from their holders,
// import them into the local tier — and reports every holder's
// outcome plus the tokens and wire bytes moved, so the engine can
// charge the peer link and partial results are observable instead of
// silent.
//
// Fetch runs only in the cluster's barrier sections, one call at a
// time, so the store owns its scratch outright: the holder batches and
// the report's Holders list are reused from one Fetch to the next, and
// a warm Fetch allocates nothing.
type Store struct {
	dir  *Directory
	mgrs []core.TierManager
	base []core.Manager // same replicas, plain Manager surface (Lookup)
	// peers[dst] is dst's presence oracle — the directory's lowest
	// holder other than dst — built once at Attach.
	peers []core.PeerPresence
	// Fetch scratch: the (holder, group) batches in first-seen order,
	// each keeping its hash list's array, and the holder reports the
	// returned FetchReport points at.
	batches []batch
	reports []HolderReport
	// faults, when set, decides whether each transfer attempt fails;
	// attempts bounds the per-batch retry loop (≥ 1; 1 = no retry,
	// the historical behavior). Both are written only between runs
	// and read only from the serial arrival loop.
	faults   TransferFaults
	attempts int
	stats    StoreStats
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
	// Fetched/Skipped/Failed count holder batches by outcome;
	// Retries counts failed attempts that were retried.
	Fetched, Skipped, Failed, Retries int64
	// MaxAttempts is the largest attempt count any single batch used
	// (never exceeds the configured bound).
	MaxAttempts int
}

// FetchOutcome classifies one holder batch's result.
type FetchOutcome uint8

const (
	// FetchOK: the holder's pages were exported and imported.
	FetchOK FetchOutcome = iota
	// FetchSkipped: the holder had nothing left to export by transfer
	// time (tier churn beat the fetch) — fall back to local recompute.
	FetchSkipped
	// FetchFailed: every transfer attempt faulted — fall back to
	// local recompute.
	FetchFailed
)

// String names the outcome for reports.
func (o FetchOutcome) String() string {
	switch o {
	case FetchOK:
		return "fetched"
	case FetchSkipped:
		return "skipped"
	case FetchFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// HolderReport is one (holder, group) batch's outcome within a Fetch.
type HolderReport struct {
	Holder  int
	Group   string
	Blocks  int
	Outcome FetchOutcome
	// Reason explains a skip or failure ("" for FetchOK).
	Reason string
	// Attempts is how many transfer attempts ran (≥ 1 once the export
	// succeeded; 0 for batches skipped before any transfer).
	Attempts int
	// Bytes is the wire volume this batch charged — imported pages
	// plus every timed-out attempt's wasted transfer.
	Bytes int64
}

// batch is the blocks one Fetch wants from one (holder, group).
type batch struct {
	src    int
	group  string
	hashes []uint64
}

// FetchReport is the full outcome of one Store.Fetch.
type FetchReport struct {
	// Tokens is the prefix length gained over the local lookup (0
	// when nothing landed); Bytes the total peer-link wire volume to
	// charge, failed attempts included; Imported the successfully
	// injected share of Bytes.
	Tokens   int
	Bytes    int64
	Imported int64
	// Holders details every (holder, group) batch in first-seen
	// order; the counters tally them by outcome. The list is the
	// store's scratch, valid until its next Fetch.
	Holders                  []HolderReport
	Fetched, Skipped, Failed int
	Retries                  int
}

// NewStore returns a store for n replicas with an empty directory.
func NewStore(n int) *Store {
	return &Store{
		dir:      NewDirectory(),
		mgrs:     make([]core.TierManager, n),
		base:     make([]core.Manager, n),
		peers:    make([]core.PeerPresence, n),
		attempts: 1,
	}
}

// Directory exposes the store's directory (tests, stats).
func (s *Store) Directory() *Directory { return s.dir }

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
	tm, ok := mgr.(core.TierManager)
	if !ok || replica < 0 || replica >= len(s.mgrs) {
		return false
	}
	tm.SetTierObserver(&dirObserver{dir: s.dir, replica: replica})
	s.mgrs[replica] = tm
	s.base[replica] = mgr
	s.peers[replica] = func(group string, hash uint64) (int, bool) {
		return s.dir.Lookup(group, hash, replica)
	}
	return true
}

// peerFetchNoter is the optional destination-tier capability that
// records skip/fail counts into tier stats (core.Jenga implements
// it).
type peerFetchNoter interface {
	NotePeerFetch(skipped, failed int64)
}

// Fetch runs the fleet miss path for a sequence about to be admitted
// on replica dst: if peers extend the locally cached prefix, export
// the needed pages from their holders and import them into dst's host
// tier, so dst's own claim restores them like locally spilled pages.
// The report carries every holder's outcome — fetched, skipped or
// failed, with the per-batch attempt count — plus the prefix tokens
// gained over the local lookup and the wire bytes to charge (timed-out
// attempts burn wire time too: the pages were in flight when the
// transfer died). Transfer sources are directory-pinned for the
// duration of their export, and pinned tier pages are never exported —
// mid-restore state stays private to its replica. Batches that skip
// or fail fall back to local recompute naturally: the destination
// simply never sees their pages.
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
	local := s.base[dst].Lookup(seq)
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
	rep.Holders = s.reports[:0]
	for i := range batches {
		k := &batches[i]
		hr := HolderReport{Holder: k.src, Group: k.group, Blocks: len(k.hashes)}
		src := s.mgrs[k.src]
		if src == nil {
			hr.Outcome, hr.Reason = FetchSkipped, "holder detached"
			rep.Holders = append(rep.Holders, hr)
			rep.Skipped++
			continue
		}
		s.dir.Pin(k.src)
		ps, ok := src.ExportPrefix(k.group, k.hashes)
		s.dir.Unpin(k.src)
		if !ok {
			hr.Outcome, hr.Reason = FetchSkipped, "nothing to export"
			rep.Holders = append(rep.Holders, hr)
			rep.Skipped++
			continue
		}
		for {
			hr.Attempts++
			if s.faults != nil && s.faults.FailTransfer(k.src, dst) {
				hr.Bytes += ps.Bytes()
				if hr.Attempts >= s.attempts {
					hr.Outcome, hr.Reason = FetchFailed, "transfer timeout"
					break
				}
				rep.Retries++
				continue
			}
			_, b := tm.ImportPrefix(ps, now)
			hr.Bytes += b
			rep.Imported += b
			hr.Outcome = FetchOK
			break
		}
		rep.Holders = append(rep.Holders, hr)
		switch hr.Outcome {
		case FetchOK:
			rep.Fetched++
		case FetchFailed:
			rep.Failed++
		}
		rep.Bytes += hr.Bytes
		if hr.Attempts > s.stats.MaxAttempts {
			s.stats.MaxAttempts = hr.Attempts
		}
	}
	s.reports = rep.Holders
	s.stats.Fetched += int64(rep.Fetched)
	s.stats.Skipped += int64(rep.Skipped)
	s.stats.Failed += int64(rep.Failed)
	s.stats.Retries += int64(rep.Retries)
	// Surface non-delivering holders in the destination tier's stats:
	// a partial fetch must be observable, not silent.
	if rep.Skipped > 0 || rep.Failed > 0 {
		if noter, ok := tm.(peerFetchNoter); ok {
			noter.NotePeerFetch(int64(rep.Skipped), int64(rep.Failed))
		}
	}
	if rep.Imported > 0 {
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
