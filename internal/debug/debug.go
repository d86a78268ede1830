// Package debug holds the one switch of the jengadebug build: On is a
// constant, false in a normal build, so every `if debug.On` block
// compiles away, and true under `-tags jengadebug`, where memory that is
// handed back is poisoned before it is reused and hand-over counts are
// asserted to balance (DESIGN.md, "Requests and prompts"). `make ci`
// runs the engine, cluster, workload and bench suites once that way.
package debug
