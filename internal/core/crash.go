package core

import "jenga/internal/debug"

// Crasher is the optional Manager capability behind fault injection:
// CrashReset wipes every byte of managed state — GPU heap, prefix
// cache, host tier — restarting the manager cold, as if newly
// constructed. A replica crash loses device memory and the host tier
// alike; the fleet directory's now-dangling entries for this holder
// are invalidated separately by the layer that owns them
// (fleet.Store.Crash). Managers without the capability simply keep
// their state across a simulated crash — only the replica's requests
// and routing are affected.
type Crasher interface {
	CrashReset() error
}

var _ Crasher = (*Jenga)(nil)

// CrashReset implements Crasher: the manager restarts cold from its
// original configuration. Pointer identity is preserved — every
// engine, store and tier-capability reference holding this *Jenga
// stays valid — and the installed tier observer survives the reset,
// so a restarted replica's new spills keep feeding the fleet
// directory.
func (m *Jenga) CrashReset() error {
	var obs TierObserver
	if m.host != nil {
		obs = m.host.obs
		if debug.On {
			// The old tier's page set and fetch list die with it.
			m.host.scribbleExport()
			m.host.scribbleFetch()
		}
	}
	fresh, err := newManager(m.cfg, m.host)
	if err != nil {
		return err
	}
	*m = *fresh
	if obs != nil {
		m.SetTierObserver(obs)
	}
	if debug.On {
		m.mustHold()
	}
	return nil
}
