package model

import "testing"

// TestGeometryAllPoliciesAllModels sweeps every zoo model under the LCM
// page policy at several page sizes and checks the §4.4 invariant: each
// group's small pages tile the large page exactly, with no tail waste.
func TestGeometryAllPoliciesAllModels(t *testing.T) {
	for _, s := range All() {
		for _, tokensPerPage := range []int{1, 16, 32} {
			g, err := s.Geometry(tokensPerPage)
			if err != nil {
				t.Errorf("%s/%d: %v", s.Name, tokensPerPage, err)
				continue
			}
			if len(g.SmallPageBytes) != len(s.Groups) || len(g.Ratio) != len(s.Groups) {
				t.Errorf("%s/%d: %d small pages, %d ratios for %d groups",
					s.Name, tokensPerPage, len(g.SmallPageBytes), len(g.Ratio), len(s.Groups))
			}
			for name, sz := range g.SmallPageBytes {
				if g.LargePageBytes%sz != 0 {
					t.Errorf("%s/%d: LCM %d %% %d != 0", s.Name, tokensPerPage, g.LargePageBytes, sz)
				}
				if waste := g.LargePageBytes - g.Ratio[name]*sz; waste != 0 {
					t.Errorf("%s/%d/%s: LCM tail waste %d", s.Name, tokensPerPage, name, waste)
				}
			}
		}
	}
}

func TestPhysicalLayers(t *testing.T) {
	g := KVGroup{Layers: 6}
	if g.Physical() != 6 {
		t.Error("unset PhysicalLayers must default to Layers")
	}
	g.PhysicalLayers = 13
	if g.Physical() != 13 {
		t.Error("PhysicalLayers must override")
	}
	g.PhysicalLayers = 3 // smaller than Layers: ignore (KV owners can't exceed physical)
	if g.Physical() != 6 {
		t.Error("PhysicalLayers below Layers must be ignored")
	}
	// character.ai: baseline allocates 80 physical layers.
	c := CharacterAI70B()
	total := 0
	for i := range c.Groups {
		total += c.Groups[i].Physical()
	}
	if total != 80 {
		t.Errorf("character physical layers = %d, want 80", total)
	}
}

// TestTagValidation: tagged groups pass validation (multi-model specs).
func TestTaggedSpecValidates(t *testing.T) {
	s := &Spec{
		Name: "tagged", Params: 1, WeightBytes: 2,
		Groups: []KVGroup{
			{Name: "t:self", Kind: FullAttention, Layers: 1, BytesPerToken: 64, Tag: "target"},
			{Name: "d:self", Kind: FullAttention, Layers: 1, BytesPerToken: 64, Tag: "draft"},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
