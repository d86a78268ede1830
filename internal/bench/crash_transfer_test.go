package bench

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/core"
)

// fetchCall is one fleet fetch as the managers saw it: the request it
// ran for, the replica it ran on, the replicas it exported from, and
// which of those had nothing to export.
type fetchCall struct {
	id           int64
	dst          int
	holders, dry []int
}

// recordingMgr is a replica's Jenga manager with the fleet store's two
// calls into it logged: LookupFleet opens a fetch, and each
// ExportPrefix names a holder of the latest one. Both run only in the
// cluster's serial barrier sections, so the log needs no lock.
type recordingMgr struct {
	*core.Jenga
	replica int
	log     *[]fetchCall
}

func (m *recordingMgr) LookupFleet(seq *core.Sequence, peer core.PeerPresence) (int, []core.FetchBlock) {
	*m.log = append(*m.log, fetchCall{id: int64(seq.ID), dst: m.replica})
	return m.Jenga.LookupFleet(seq, peer)
}

func (m *recordingMgr) ExportPrefix(group string, hashes []uint64) (core.PageSet, bool) {
	c := &(*m.log)[len(*m.log)-1]
	c.holders = append(c.holders, m.replica)
	ps, ok := m.Jenga.ExportPrefix(group, hashes)
	if !ok {
		c.dry = append(c.dry, m.replica)
	}
	return ps, ok
}

// fetchesOf serves s through ServeOnline on managers built as
// bench.Run's cluster builds them but wrapped in recordingMgr, and
// returns every fetch in the order it ran. The wrapping must change
// nothing: the run has to equal Run(s).
func fetchesOf(t *testing.T, s Scenario) []fetchCall {
	t.Helper()
	plan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var log []fetchCall
	c, err := cluster.New(cluster.Config{
		Spec: s.Spec, Device: s.Device, Replicas: s.Replicas,
		Policy: s.Router, Admission: s.Admission, Scheduler: s.Scheduler,
		PreemptMode: s.Preempt, SLOTTFT: s.SLOTTFT, Fleet: s.Fleet,
		Chaos: cluster.ChaosPolicy{Plan: plan, Recover: s.Recover},
		NewManager: func(i int) (core.Manager, error) {
			m, err := core.New(core.Config{
				Spec: s.Spec, CapacityBytes: s.CapacityBytes, HostTierBytes: s.HostTierBytes,
				EnablePrefixCache: true, RequestAware: true,
			})
			return &recordingMgr{Jenga: m, replica: i, log: &log}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ServeOnline(s.Workload())
	if err != nil {
		t.Fatal(err)
	}
	s.Horizon = Online
	want, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact(got), exact(want)) {
		t.Fatalf("recording the fetches changed the run:\n%+v\n%+v", exact(got), exact(want))
	}
	return log
}

// TestCrashMeetsTransfer lands a replica crash on the very instant of a
// cross-replica transfer, recovery off and on, through ServeOnline and
// ServeStream:
//
//   - fetch: the crash instant is the arrival of a request whose fleet
//     fetch, in the same run without the crash, exports from the
//     crashing replica;
//   - drain out: a drain fires at the crash instant, and the crashing
//     replica is the one it drains;
//   - drain in: a drain fires at the crash instant, and the crashing
//     replica is one it migrates into, without the crash.
//
// Each transfer is one call inside one barrier section — a fetch
// exports and imports in Store.Fetch, a migration moves out and in in
// Cluster.migrate — and the crash applies in that section first, so a
// transfer meets a live replica or a dead one, never one dying halfway.
// Every row must account for every request exactly once: one terminal
// event each or counted lost, and the result's counters summing to the
// number submitted. `make debug` runs it with every jengadebug check
// on. The fetch row also shows the crash reach the fetch: with recovery
// off the dead holder's directory entries stay, so the crash-instant
// fetch still names it and finds its tier empty; with recovery on the
// entries are gone before the fetch asks.
func TestCrashMeetsTransfer(t *testing.T) {
	base := chaosSmokeScenario(t)
	base.Faults = nil
	base.Fleet = cluster.FleetPolicy{Store: true}
	reqs := base.Workload()
	arrival := make(map[int64]time.Duration, len(reqs))
	for _, r := range reqs {
		arrival[r.ID] = r.Arrival
	}

	// The first fetch past the burst's first third that exports from a
	// peer.
	var hit fetchCall
	for _, c := range fetchesOf(t, base) {
		if len(c.holders) > 0 && arrival[c.id] > reqs[len(reqs)/3].Arrival {
			hit = c
			break
		}
	}
	if len(hit.holders) == 0 {
		t.Fatal("no fetch exported from a peer past the burst's first third: the fetch row has nothing to crash into")
	}

	drain := base
	drain.Fleet = cluster.FleetPolicy{Store: true, Migrate: true, DrainAfter: reqs[len(reqs)/2].Arrival}
	// A migration fetches on its destination for a request that already
	// fetched at its arrival: a second call for one ID.
	into := -1
	seen := make(map[int64]bool)
	for _, c := range fetchesOf(t, drain) {
		if seen[c.id] && into < 0 {
			into = c.dst
		}
		seen[c.id] = true
	}
	if into < 0 {
		t.Fatal("the drain migrated nothing: the drain rows have nothing to crash into")
	}

	rows := []struct {
		name    string
		s       Scenario
		replica int
		at      time.Duration
	}{
		{"fetch", base, hit.holders[0], arrival[hit.id]},
		{"drain out", drain, drain.Replicas - 1, drain.Fleet.DrainAfter},
		{"drain in", drain, into, drain.Fleet.DrainAfter},
	}
	for _, r := range rows {
		for _, recover := range []bool{false, true} {
			s := r.s
			s.Faults = &Faults{Replica: r.replica, CrashAt: r.at, RestartAt: r.at + 200*time.Millisecond}
			s.Recover = recover
			for _, h := range []Horizon{Online, Stream} {
				s.Horizon, s.Shards = h, 2
				res, c := runCounted(t, s)
				if res.Crashes != 1 || res.Restarts != 1 {
					t.Fatalf("%s (replica %d at %v), recover=%v, horizon %d: crashes/restarts = %d/%d, want 1/1",
						r.name, r.replica, r.at, recover, h, res.Crashes, res.Restarts)
				}
				checkTerminalOnce(t, s, res, c)
			}
			if r.name != "fetch" {
				continue
			}
			calls := fetchesOf(t, s)
			i := slices.IndexFunc(calls, func(c fetchCall) bool { return c.id == hit.id })
			if i < 0 {
				t.Fatalf("recover=%v: request %d arrived at the crash instant and fetched nothing", recover, hit.id)
			}
			c := calls[i]
			named, dry := slices.Contains(c.holders, r.replica), slices.Contains(c.dry, r.replica)
			if recover && named || !recover && !(named && dry) {
				t.Fatalf("recover=%v: the crash-instant fetch asked holders %v, %v of them dry; the crashed replica is %d",
					recover, c.holders, c.dry, r.replica)
			}
		}
	}
}
