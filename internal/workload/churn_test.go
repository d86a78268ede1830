package workload

import "testing"

func TestChurnGroupsDeterministic(t *testing.T) {
	a := NewGen(11).ChurnGroups(8, 16, 64, 8, 4)
	b := NewGen(11).ChurnGroups(8, 16, 64, 8, 4)
	if len(a) != len(b) || len(a) != 8*16 {
		t.Fatalf("lengths differ: %d vs %d (want %d)", len(a), len(b), 8*16)
	}
	for i := range a {
		pa, pb := fullPrompt(&a[i]), fullPrompt(&b[i])
		if a[i].ID != b[i].ID || a[i].Group != b[i].Group || len(pa) != len(pb) {
			t.Fatalf("request %d differs across identical seeds", i)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("request %d token %d differs", i, j)
			}
		}
	}
}

func TestChurnGroupsSharesPrefixContentWithPrefixGroups(t *testing.T) {
	const prefixLen = 64
	churn := NewGen(1).ChurnGroups(4, 8, prefixLen, 8, 2)
	plain := NewGen(2).PrefixGroups(4, 1, prefixLen, 8)
	byGroup := make(map[int64][]int32)
	for _, r := range plain {
		ids := make([]int32, prefixLen)
		p := fullPrompt(&r)
		for i := 0; i < prefixLen; i++ {
			ids[i] = p[i].ID
		}
		byGroup[r.Group] = ids
	}
	for _, r := range churn {
		want, ok := byGroup[r.Group]
		if !ok {
			t.Fatalf("churn group %d not generated by PrefixGroups", r.Group)
		}
		p := fullPrompt(&r)
		for i := 0; i < prefixLen; i++ {
			if p[i].ID != want[i] {
				t.Fatalf("group %d prefix token %d: churn %d, prefix-groups %d",
					r.Group, i, p[i].ID, want[i])
			}
		}
	}
}

func TestChurnGroupsPhaseShiftsPopularity(t *testing.T) {
	const (
		groups, perGroup, phases = 8, 64, 4
	)
	reqs := NewGen(7).ChurnGroups(groups, perGroup, 32, 8, phases)
	total := len(reqs)
	window := total / phases
	for p := 0; p < phases; p++ {
		hot := 0
		for _, r := range reqs[p*window : (p+1)*window] {
			grp := int(r.Group - 7_000_000)
			if grp%phases == p {
				hot++
			}
		}
		// 80% targeted at the hot quarter of groups plus the uniform
		// spillover: expect well over half the window on the hot set.
		if frac := float64(hot) / float64(window); frac < 0.6 {
			t.Fatalf("phase %d hot share %.2f, want ≥ 0.6", p, frac)
		}
	}
}

func TestChurnGroupsSinglePhaseAndTinyGroups(t *testing.T) {
	reqs := NewGen(3).ChurnGroups(2, 4, 16, 4, 1)
	if len(reqs) != 8 {
		t.Fatalf("got %d requests, want 8", len(reqs))
	}
	// More phases than groups: late phases have empty hot sets and
	// must fall back to uniform draws without panicking.
	reqs = NewGen(3).ChurnGroups(2, 8, 16, 4, 6)
	if len(reqs) != 16 {
		t.Fatalf("got %d requests, want 16", len(reqs))
	}
	for _, r := range reqs {
		if g := r.Group - 7_000_000; g < 0 || g > 1 {
			t.Fatalf("group label %d out of range", r.Group)
		}
	}
}
