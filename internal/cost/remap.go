package cost

import "fastt/internal/device"

// RemapDevices returns a new model for a shrunk cluster, carrying over every
// observation that survives a device loss. oldToNew maps old device IDs to
// new ones, with -1 marking removed devices — the mapping Cluster.Without
// returns. Computation entries on a removed device and communication pairs
// touching it are dropped; everything else is renumbered. The per-name and
// link-class aggregates are rebuilt from the surviving entries only, so the
// dead device's timings stop influencing fallback estimates after recovery.
func (m *Model) RemapDevices(cluster *device.Cluster, oldToNew []int) *Model {
	next := NewModel(cluster)
	m.Comp.remapInto(next.Comp, oldToNew)
	m.Link.remapInto(next.Link, oldToNew)
	return next
}

func (m *CompModel) remapInto(dst *CompModel, oldToNew []int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, s := range m.stats {
		if dev, ok := remapped(oldToNew, k.dev); ok {
			dst.fold(k.name, dev, func(d *runningStat) { mergeStat(d, s.n, s.mean, s.m2) })
		}
	}
}

func (m *CommModel) remapInto(dst *CommModel, oldToNew []int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, acc := range m.pairs {
		from, okFrom := remapped(oldToNew, k.from)
		to, okTo := remapped(oldToNew, k.to)
		if okFrom && okTo {
			dst.fold(from, to, acc)
		}
	}
}

// remapped returns the new ID of old device dev, and whether it survived.
func remapped(oldToNew []int, dev int) (int, bool) {
	if dev < 0 || dev >= len(oldToNew) || oldToNew[dev] < 0 {
		return 0, false
	}
	return oldToNew[dev], true
}
