package model

import "fmt"

// GCD returns the greatest common divisor of a and b (gcd(0,b)=b).
func GCD(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// LCM returns the least common multiple of a and b, or an error on
// overflow or non-positive input.
func LCM(a, b int) (int, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("model: lcm of non-positive values %d, %d", a, b)
	}
	g := GCD(a, b)
	q := a / g
	if q > (1<<62)/b {
		return 0, fmt.Errorf("model: lcm(%d,%d) overflows", a, b)
	}
	return q * b, nil
}

// PageGeometry is the result of compatibility-layer sizing for a model:
// the large-page size plus each group's small-page size and the number
// of small pages per large page (the "ratio").
type PageGeometry struct {
	// TokensPerPage used for token-granularity groups.
	TokensPerPage int
	// LargePageBytes is the compatibility-layer page size.
	LargePageBytes int
	// SmallPageBytes maps group name to its small-page size.
	SmallPageBytes map[string]int
	// Ratio maps group name to LargePageBytes / SmallPageBytes
	// (small pages per large page), an exact division.
	Ratio map[string]int
}

// MaxLCMRatio guards against pathological LCM blow-ups: the paper
// reports the largest observed ratio in vLLM v0.6.4 is 84× (Jamba), so
// a generous cap catches config mistakes without limiting real models.
const MaxLCMRatio = 1 << 20

// Geometry computes the LCM page geometry for the spec (§4.4): the
// large page is the least common multiple of all small-page sizes, so
// every group tiles it exactly — no external fragmentation, no kernel
// changes. tokensPerPage must be ≥ 1.
func (s *Spec) Geometry(tokensPerPage int) (*PageGeometry, error) {
	if tokensPerPage < 1 {
		return nil, fmt.Errorf("model %s: tokensPerPage %d < 1", s.Name, tokensPerPage)
	}
	if len(s.Groups) == 0 {
		return nil, fmt.Errorf("model %s: no KV groups", s.Name)
	}
	g := &PageGeometry{
		TokensPerPage:  tokensPerPage,
		LargePageBytes: 1,
		SmallPageBytes: make(map[string]int, len(s.Groups)),
		Ratio:          make(map[string]int, len(s.Groups)),
	}
	for i := range s.Groups {
		grp := &s.Groups[i]
		sz := grp.PageBytes(tokensPerPage)
		if sz <= 0 {
			return nil, fmt.Errorf("model %s group %s: non-positive page size", s.Name, grp.Name)
		}
		g.SmallPageBytes[grp.Name] = sz
		var err error
		if g.LargePageBytes, err = LCM(g.LargePageBytes, sz); err != nil {
			return nil, err
		}
	}
	for name, sz := range g.SmallPageBytes {
		r := g.LargePageBytes / sz
		if r > MaxLCMRatio {
			return nil, fmt.Errorf("model %s group %s: ratio %d exceeds cap %d",
				s.Name, name, r, MaxLCMRatio)
		}
		g.Ratio[name] = r
	}
	return g, nil
}

// MaxRatio returns the largest small-pages-per-large-page ratio across
// groups — the paper's "84× for Jamba" statistic.
func (g *PageGeometry) MaxRatio() int {
	m := 0
	for _, r := range g.Ratio {
		if r > m {
			m = r
		}
	}
	return m
}
