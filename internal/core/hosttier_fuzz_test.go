package core

import (
	"fmt"
	"slices"
	"testing"
)

// refTier is an independent reference model of the host tier: pages
// as a plain slice, the index rebuilt with the same last-spill-wins
// semantics, eviction by linear min-scan. The fuzzer drives both
// implementations with the same byte-decoded op stream and compares
// full contents and observer notifications after every op — catching
// index dangles, byte mis-accounting, pin violations, nondeterministic
// eviction and a dying page reporting hashes a re-spill repointed.
// Pages are keyed by spill sequence number throughout; the slab's slots
// are the real tier's own business.
type refTier struct {
	capacity, pageBytes int64
	used                int64
	nextSeq             int64
	pages               []*refPage
	index               map[int]map[uint64]int64
	pinned              map[int64]int
	// events logs what an observer must hear, in tierEvents' form.
	events []string
}

type refPage struct {
	seq    int64
	touch  Tick
	group  int
	blocks map[uint64]int32
}

func newRefTier(capacity, pageBytes int64) *refTier {
	return &refTier{
		capacity: capacity, pageBytes: pageBytes,
		index:  make(map[int]map[uint64]int64),
		pinned: make(map[int64]int),
	}
}

// tierEvents records observer notifications as "kind group sorted
// hashes" strings.
type tierEvents struct{ log []string }

func tierEvent(kind, group string, hashes []uint64) string {
	hs := slices.Clone(hashes)
	slices.Sort(hs)
	return fmt.Sprint(kind, " ", group, " ", hs)
}

func (o *tierEvents) TierStored(group string, hashes []uint64) {
	o.log = append(o.log, tierEvent("stored", group, hashes))
}

func (o *tierEvents) TierEvicted(group string, hashes []uint64) {
	o.log = append(o.log, tierEvent("evicted", group, hashes))
}

var fuzzTierGroups = []string{"a", "b"}

func (r *refTier) spill(group int, hashes []uint64, filled []int32, now Tick) bool {
	if r.capacity < r.pageBytes || len(hashes) == 0 {
		return false
	}
	for r.used+r.pageBytes > r.capacity {
		if !r.evictOne() {
			return false
		}
	}
	pg := &refPage{seq: r.nextSeq, touch: now, group: group, blocks: make(map[uint64]int32)}
	r.nextSeq++
	gi := r.index[group]
	if gi == nil {
		gi = make(map[uint64]int64)
		r.index[group] = gi
	}
	for i, h := range hashes {
		pg.blocks[h] = filled[i]
		gi[h] = pg.seq
	}
	r.pages = append(r.pages, pg)
	r.used += r.pageBytes
	r.events = append(r.events, tierEvent("stored", fuzzTierGroups[group], hashes))
	return true
}

func (r *refTier) evictOne() bool {
	vi := -1
	for i, pg := range r.pages {
		if _, p := r.pinned[pg.seq]; p {
			continue
		}
		if vi < 0 || pg.touch < r.pages[vi].touch ||
			(pg.touch == r.pages[vi].touch && pg.seq < r.pages[vi].seq) {
			vi = i
		}
	}
	if vi < 0 {
		return false
	}
	pg := r.pages[vi]
	gi := r.index[pg.group]
	var gone []uint64
	for h := range pg.blocks {
		// Only the hashes still pointing at this page die with it.
		if seq, ok := gi[h]; ok && seq == pg.seq {
			delete(gi, h)
			gone = append(gone, h)
		}
	}
	if len(gone) > 0 {
		r.events = append(r.events, tierEvent("evicted", fuzzTierGroups[pg.group], gone))
	}
	r.pages = append(r.pages[:vi], r.pages[vi+1:]...)
	r.used -= r.pageBytes
	return true
}

func (r *refTier) lookup(group int, hash uint64) (int32, bool) {
	gi, ok := r.index[group]
	if !ok {
		return 0, false
	}
	seq, ok := gi[hash]
	if !ok {
		return 0, false
	}
	for _, pg := range r.pages {
		if pg.seq == seq {
			return pg.blocks[hash], true
		}
	}
	return 0, false
}

func (r *refTier) touch(group int, hash uint64, now Tick) {
	if gi, ok := r.index[group]; ok {
		if seq, ok := gi[hash]; ok {
			for _, pg := range r.pages {
				if pg.seq == seq && pg.touch < now {
					pg.touch = now
				}
			}
		}
	}
}

func (r *refTier) pin(group int, hash uint64) int64 {
	gi, ok := r.index[group]
	if !ok {
		return -1
	}
	seq, ok := gi[hash]
	if !ok {
		return -1
	}
	r.pinned[seq]++
	return seq
}

func (r *refTier) unpin(seq int64) {
	if seq < 0 {
		return
	}
	if n, ok := r.pinned[seq]; ok {
		if n <= 1 {
			delete(r.pinned, seq)
		} else {
			r.pinned[seq] = n - 1
		}
	}
}

// compareTiers checks full content equality between the real tier and
// the reference.
func compareTiers(h *hostTier, r *refTier) error {
	if h.used != r.used {
		return fmt.Errorf("used %d vs ref %d", h.used, r.used)
	}
	if h.live != len(r.pages) {
		return fmt.Errorf("pages %d vs ref %d", h.live, len(r.pages))
	}
	if h.evict.len() != h.live {
		return fmt.Errorf("%d queue entries for %d live pages", h.evict.len(), h.live)
	}
	for group, gi := range r.index {
		for hash, seq := range gi {
			hb, ok := h.lookup(group, hash)
			if !ok {
				return fmt.Errorf("ref has %d/%x (page %d), tier misses it", group, hash, seq)
			}
			want, _ := r.lookup(group, hash)
			if hb.filled != want {
				return fmt.Errorf("%d/%x filled %d vs ref %d", group, hash, hb.filled, want)
			}
		}
	}
	for group := range h.index {
		for _, s := range h.index[group].slots {
			if s == 0 {
				continue
			}
			hash := h.hash[s-1]
			if _, ok := r.lookup(group, hash); !ok {
				return fmt.Errorf("tier has %d/%x, ref misses it", group, hash)
			}
		}
	}
	return h.check()
}

// FuzzHostTier drives the host tier and the reference with the same
// byte-decoded op stream: spills (consecutive hashes over a 16-value
// space, so re-spills repoint hashes older pages still carry),
// lookups/touches, evictions — a four-page budget keeps slots cycling
// through the free list — pins, unpins, and unpins through a handle
// already released, whose page may be gone and its slot re-tenanted.
// Any divergence in contents, byte accounting, operation outcome or
// observer notification fails.
func FuzzHostTier(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 4, 0, 2, 0, 0, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 0, 2, 2, 4, 1, 0, 3, 0, 5, 0, 2, 2, 2})
	// Pin, release, evict the page, refill its slot and pin the new
	// tenant, then release the first handle again: a no-op.
	f.Add([]byte{0, 0, 3, 0, 4, 0, 2, 0, 0, 4, 3, 4, 5, 0, 2, 0})
	// Spill hashes 0-2, re-spill 2-3 as a second page, evict the first:
	// only 0 and 1 die with it, 2 stays resident in the second.
	f.Add([]byte{0, 32, 0, 34, 2, 0, 1, 0, 1, 2})
	// Spill hash 0, pin it three times, re-spill it, evict: the newer
	// copy goes, and the pinned older one stays live but unreachable.
	f.Add([]byte("00909090002000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const pageBytes = 64
		tier := newHostTier(4*pageBytes, pageBytes, fuzzTierGroups, []int{3, 3})
		ref := newRefTier(4*pageBytes, pageBytes)
		obs := &tierEvents{}
		tier.obs = obs
		var pins, spent []tierPin
		var refPins, refSpent []int64
		now := Tick(1)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%6, data[i+1]
			group := int(arg) % len(fuzzTierGroups)
			hash := uint64(arg % 16)
			now++
			switch op {
			case 0: // spill 1–3 blocks with consecutive hashes
				n := 1 + int(arg)%3
				hashes := make([]uint64, n)
				filled := make([]int32, n)
				blocks := make([]hostBlock, n)
				for k := 0; k < n; k++ {
					hashes[k] = (hash + uint64(k)) % 16
					filled[k] = int32(arg) + int32(k)
					blocks[k] = hostBlock{filled: filled[k]}
				}
				got := tier.spill(group, blocks, hashes, now)
				want := ref.spill(group, hashes, filled, now)
				if got != want {
					t.Fatalf("op %d: spill = %v, ref %v", i, got, want)
				}
			case 1: // lookup + touch
				hb, ok := tier.lookup(group, hash)
				want, wok := ref.lookup(group, hash)
				if ok != wok || (ok && hb.filled != want) {
					t.Fatalf("op %d: lookup(%d, %x) = %v, ref %v", i, group, hash, ok, wok)
				}
				tier.touchPage(group, hash, now)
				ref.touch(group, hash, now)
			case 2: // evict
				got := tier.evictOne()
				want := ref.evictOne()
				if got != want {
					t.Fatalf("op %d: evictOne = %v, ref %v", i, got, want)
				}
			case 3: // pin
				p, rp := tier.pin(group, hash), ref.pin(group, hash)
				if (p.block < 0) != (rp < 0) || (rp >= 0 && p.seq != rp) {
					t.Fatalf("op %d: pin = %+v, ref page %d", i, p, rp)
				}
				if p.block >= 0 && (tier.pinned(p) != &tier.blocks[p.block] || tier.hash[p.block] != hash) {
					t.Fatalf("op %d: pin %+v holds block %x, want %x", i, p, tier.hash[p.block], hash)
				}
				pins, refPins = append(pins, p), append(refPins, rp)
			case 4: // unpin oldest outstanding pin
				if len(pins) > 0 {
					// spent keeps a copy: the unpinned handle itself is
					// scribbled in a jengadebug build.
					spent, refSpent = append(spent, pins[0]), append(refSpent, refPins[0])
					tier.unpin(&pins[0])
					ref.unpin(refPins[0])
					pins, refPins = pins[1:], refPins[1:]
				}
			case 5: // unpin through the oldest released handle again
				if len(spent) > 0 {
					tier.unpin(&spent[0])
					ref.unpin(refSpent[0])
					spent, refSpent = spent[1:], refSpent[1:]
				}
			}
			if err := compareTiers(tier, ref); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if !slices.Equal(obs.log, ref.events) {
				t.Fatalf("op %d: observer heard %q, ref %q", i, obs.log, ref.events)
			}
			obs.log, ref.events = obs.log[:0], ref.events[:0]
			if tier.used > tier.capacity {
				t.Fatalf("op %d: tier over budget: %d > %d", i, tier.used, tier.capacity)
			}
			if tier.stats.HostUsed != tier.used {
				t.Fatalf("op %d: stats.HostUsed %d != used %d", i, tier.stats.HostUsed, tier.used)
			}
		}
	})
}
