// Package hotpathtest exercises the hotpath analyzer. The check is
// pragma-gated rather than package-gated, so the fixture lives outside
// the virtual jenga/ tree: any //jenga:hotpath function anywhere is
// held to the zero-alloc contract.
package hotpathtest

import "fmt"

type ring struct {
	scratch []int
	index   map[int]int
}

// hot is annotated, so every allocating construct is flagged.
//
//jenga:hotpath
func (r *ring) hot(vs []int) int {
	var tmp []int
	for _, v := range vs {
		tmp = append(tmp, v) // want "append to nil-born local slice tmp"
	}
	f := func() int { return len(tmp) } // want "closure in //jenga:hotpath function hot"
	m := map[int]int{}                  // want "map literal in //jenga:hotpath function hot"
	mm := make(map[int]int)             // want "make\\(map\\) in //jenga:hotpath function hot"
	fmt.Println(len(m), len(mm))        // want "fmt.Println in //jenga:hotpath function hot"
	return f()
}

// cold is the same body without the annotation: no findings.
func (r *ring) cold(vs []int) int {
	var tmp []int
	for _, v := range vs {
		tmp = append(tmp, v)
	}
	f := func() int { return len(tmp) }
	m := map[int]int{}
	mm := make(map[int]int)
	fmt.Println(len(m), len(mm))
	return f()
}

// hotClean shows the sanctioned shapes: amortized scratch fields,
// capacity-born locals, and integer work stay silent.
//
//jenga:hotpath
func (r *ring) hotClean(vs []int) int {
	r.scratch = r.scratch[:0]
	tmp := make([]int, 0, 8)
	for _, v := range vs {
		r.scratch = append(r.scratch, v)
		tmp = append(tmp, v)
	}
	n := 0
	for _, v := range tmp {
		n += r.index[v]
	}
	return n
}

// hotJustified carries a justified suppression for its one cold-start
// allocation.
//
//jenga:hotpath
func (r *ring) hotJustified(v int) {
	if r.index == nil {
		//jenga:alloc-ok lazy init: taken once per ring, never on the steady-state path
		r.index = make(map[int]int)
	}
	r.index[v]++
}

// A bare pragma is reported and does not suppress the finding.
//
//jenga:hotpath
func (r *ring) hotBare() map[int]int {
	return make(map[int]int) /* want "make\\(map\\) in //jenga:hotpath function hotBare" "needs a justification" */ //jenga:alloc-ok
}

// --- boxing ---------------------------------------------------------------

type entry struct {
	id int
	ts int64
}

type sink interface{ put(any) }

type box struct{ last any }

func (b *box) put(v any) { b.last = v }

func logf(format string, args ...any) {}

func check(cond bool, format string, args ...any) {}

// hotBoxed converts concrete values to interfaces every way the check
// covers: call argument, variadic argument, method argument through an
// interface, return value, assignment, declaration, explicit
// conversion.
//
//jenga:hotpath
func (b *box) hotBoxed(s sink, e entry, n int) any {
	b.put(e)                  // want "entry value boxed into any in //jenga:hotpath function hotBoxed"
	s.put(n)                  // want "int value boxed into any"
	logf("%d %v", n, e)       // want "int value boxed into any" "entry value boxed into any"
	check(n > 0, "n = %d", n) // want "int value boxed into any"
	b.last = e.ts             // want "int64 value boxed into any"
	var v any = e             // want "entry value boxed into any"
	_ = any(e.id)             // want "int value boxed into any"
	_ = v
	return e // want "entry value boxed into any"
}

// hotUnboxed shows what stays silent: pointers and other
// pointer-shaped values, constants, single bytes, values that already
// are interfaces, a forwarded variadic slice, and the invariant idiom
// whose arguments are only evaluated on the way to a panic.
//
//jenga:hotpath
func (b *box) hotUnboxed(s sink, e *entry, v any, ok bool, args []any) any {
	b.put(e)
	b.put(b.put)
	s.put(v)
	s.put(42)
	s.put("constant")
	s.put(ok)
	s.put(nil)
	logf("%v", args...)
	if e.id < 0 {
		check(false, "entry %d went negative at %d", e.id, e.ts)
	}
	b.last = v
	var w any = e
	_ = w
	return e
}

// coldBoxed is hotBoxed without the annotation: no findings.
func (b *box) coldBoxed(e entry) any {
	b.put(e)
	return e
}

// hotBoxJustified suppresses one cold-branch conversion.
//
//jenga:hotpath
func (b *box) hotBoxJustified(e entry) {
	if e.id < 0 {
		//jenga:alloc-ok corrupt-entry report, taken at most once per run
		logf("bad entry %v", e)
	}
}
