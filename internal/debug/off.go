//go:build !jengadebug

package debug

// On reports whether this is a jengadebug build.
const On = false
