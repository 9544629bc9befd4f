// Package device describes the GPU clusters FastT schedules onto: device
// descriptors (memory capacity, compute throughput, host server) and the
// interconnect topology. The paper's testbed — servers with 8 NVIDIA V100
// GPUs each — is the homogeneous special case (NewCluster); mixed fleets are
// built from per-device classes (Class, NewHeterogeneous) with tiered links:
// NVLink or a PCIe host bridge within a server, same-rack Ethernet between
// servers, and a slower cross-rack tier between racks. Clusters also shrink
// (Without, the fault path) and grow (Grow, the elastic path) one device at
// a time.
package device

import (
	"errors"
	"fmt"
)

// Byte-size and rate constants used throughout the repo.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

// ErrNoDevices is returned when a cluster would contain no devices.
var ErrNoDevices = errors.New("cluster has no devices")

// Device describes one accelerator.
type Device struct {
	// ID is the device's index within its cluster.
	ID int
	// Name is a human-readable identifier such as "server0/gpu1".
	Name string
	// Class names the device class the constants below were materialized
	// from ("V100", "T4", ...). Empty means the pre-class era default and
	// reads as V100 through ClassName. The label pools learned cost
	// statistics across same-class devices; the constants themselves live on
	// the device and may drift independently (stragglers, thermal drift).
	Class string
	// MemoryBytes is the device memory capacity.
	MemoryBytes int64
	// PeakFLOPS is the peak single-precision throughput in FLOP/s.
	PeakFLOPS float64
	// MemBandwidth is the device memory bandwidth in bytes/s, which bounds
	// bandwidth-bound (elementwise) kernels.
	MemBandwidth float64
	// SaturationFLOPs is the per-class knee of the kernel utilization curve.
	// Zero means "use the oracle's configured default" — the homogeneous
	// constructors leave it zero so oracle configs keep their old meaning.
	SaturationFLOPs float64
	// Server is the index of the physical machine hosting the device.
	Server int
	// Rack is the index of the rack hosting the server. Servers in the same
	// rack share the fast Ethernet tier; cross-rack traffic pays more.
	Rack int
}

// ClassName returns the device's class label, defaulting to V100 for
// devices built before classes existed.
func (d *Device) ClassName() string {
	if d.Class == "" {
		return ClassV100
	}
	return d.Class
}

// Link describes the interconnect between an ordered device pair.
type Link struct {
	// Bandwidth is the sustained transfer rate in bytes/s.
	Bandwidth float64
	// Latency is the fixed per-transfer setup time in seconds.
	Latency float64
}

// Interconnect kinds a server can offer between its own GPUs.
const (
	// InterconnectNVLink is the fast intra-server tier (NVLink mesh).
	InterconnectNVLink = "nvlink"
	// InterconnectPCIe is the slower intra-server tier: GPU pairs that only
	// share a PCIe host bridge.
	InterconnectPCIe = "pcie"
)

// serverInfo is the per-server topology metadata the cluster keeps so links
// for joining devices (Grow) can be synthesized consistently with the ones
// built at construction time.
type serverInfo struct {
	rack         int
	interconnect string
}

// LinkPolicy is the tiered link model a cluster synthesizes its pairwise
// link table from: one intra-server tier per server interconnect kind and
// two Ethernet tiers between servers.
type LinkPolicy struct {
	// NVLink connects GPU pairs within an NVLink-equipped server.
	NVLink Link
	// PCIe connects GPU pairs within a server that only shares a PCIe host
	// bridge.
	PCIe Link
	// SameRack connects GPUs on different servers in the same rack.
	SameRack Link
	// CrossRack connects GPUs on servers in different racks.
	CrossRack Link
}

// DefaultLinkPolicy returns the testbed link tiers: NVLink and 25 GbE
// matching the paper's setup, plus PCIe and cross-rack tiers for
// heterogeneous topologies.
func DefaultLinkPolicy() LinkPolicy {
	return LinkPolicy{
		NVLink:    Link{Bandwidth: nvlinkBandwidth, Latency: nvlinkLatency},
		PCIe:      Link{Bandwidth: pcieBandwidth, Latency: pcieLatency},
		SameRack:  Link{Bandwidth: ethernetBandwidth, Latency: ethernetLatency},
		CrossRack: Link{Bandwidth: crossRackBandwidth, Latency: crossRackLatency},
	}
}

// linkFor synthesizes the tiered link between two devices hosted by the
// given servers.
func (p LinkPolicy) linkFor(a, b *Device, servers map[int]serverInfo) Link {
	if a.Server == b.Server {
		if servers[a.Server].interconnect == InterconnectPCIe {
			return p.PCIe
		}
		return p.NVLink
	}
	if a.Rack != b.Rack {
		return p.CrossRack
	}
	return p.SameRack
}

// Cluster is a set of devices plus the link table between every ordered
// pair. links[i][j] describes transfers from device i to device j; the
// diagonal is meaningless (same-device "transfers" are free). The table may
// be asymmetric and non-uniform; alongside it the cluster keeps the link
// policy and per-server metadata it was synthesized from, so a device
// joining later (Grow) gets links consistent with the original topology.
type Cluster struct {
	devices []*Device
	links   [][]Link
	servers map[int]serverInfo
	policy  LinkPolicy
}

// V100-class defaults mirroring the paper's testbed, plus the slower tiers
// heterogeneous topologies add.
const (
	defaultGPUMemory       = 16 * GiB
	defaultPeakFLOPS       = 15.7e12 // V100 fp32
	defaultMemBW           = 900e9   // V100 HBM2
	defaultSaturationFLOPs = 4e9     // kernels.DefaultConfig knee
	nvlinkBandwidth        = 22e9    // effective unidirectional NVLink
	nvlinkLatency          = 10e-6
	ethernetBandwidth      = 3e9 // 25 GbE effective
	ethernetLatency        = 50e-6
	pcieBandwidth          = 12e9 // PCIe 3.0 x16 effective
	pcieLatency            = 15e-6
	crossRackBandwidth     = 1.1e9 // 10 GbE through the spine
	crossRackLatency       = 150e-6
)

// NewCluster builds a cluster of `servers` machines with `gpusPerServer`
// GPUs each — the paper's homogeneous V100 testbed. GPUs on the same server
// are connected by NVLink, GPUs on different servers by 25 GbE. Devices
// carry the V100 class label but keep SaturationFLOPs zero, so kernel-oracle
// configs retain their pre-class meaning on homogeneous clusters.
func NewCluster(servers, gpusPerServer int) (*Cluster, error) {
	if servers < 1 || gpusPerServer < 1 {
		return nil, fmt.Errorf("%w: servers=%d gpusPerServer=%d",
			ErrNoDevices, servers, gpusPerServer)
	}
	n := servers * gpusPerServer
	policy := DefaultLinkPolicy()
	// The homogeneous constructor has a single cross-server tier; keep Grow
	// consistent with it whatever rack a joining server claims.
	policy.CrossRack = policy.SameRack
	c := &Cluster{
		devices: make([]*Device, n),
		links:   make([][]Link, n),
		servers: make(map[int]serverInfo, servers),
		policy:  policy,
	}
	for s := 0; s < servers; s++ {
		c.servers[s] = serverInfo{rack: 0, interconnect: InterconnectNVLink}
		for g := 0; g < gpusPerServer; g++ {
			id := s*gpusPerServer + g
			c.devices[id] = &Device{
				ID:           id,
				Name:         fmt.Sprintf("server%d/gpu%d", s, g),
				Class:        ClassV100,
				MemoryBytes:  defaultGPUMemory,
				PeakFLOPS:    defaultPeakFLOPS,
				MemBandwidth: defaultMemBW,
				Server:       s,
			}
		}
	}
	for i := 0; i < n; i++ {
		c.links[i] = make([]Link, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if c.devices[i].Server == c.devices[j].Server {
				c.links[i][j] = policy.NVLink
			} else {
				c.links[i][j] = policy.SameRack
			}
		}
	}
	return c, nil
}

// SingleServer builds an n-GPU single-machine cluster (the common testbed
// configuration).
func SingleServer(gpus int) (*Cluster, error) {
	return NewCluster(1, gpus)
}

// Without returns a new cluster omitting the given device — the degraded
// cluster the session reschedules onto after a device failure. Survivors
// keep their names, servers and pairwise links but are renumbered to
// contiguous IDs in their original order; the second return maps old ID ->
// new ID, with -1 for the removed device. Removing the last device (or an
// out-of-range one) fails.
func (c *Cluster) Without(failed int) (*Cluster, []int, error) {
	if failed < 0 || failed >= len(c.devices) {
		return nil, nil, fmt.Errorf("device %d outside cluster of %d", failed, len(c.devices))
	}
	if len(c.devices) == 1 {
		return nil, nil, fmt.Errorf("%w: removing device %d empties the cluster", ErrNoDevices, failed)
	}
	n := len(c.devices) - 1
	mapping := make([]int, len(c.devices))
	next := &Cluster{
		devices: make([]*Device, 0, n),
		links:   make([][]Link, n),
		servers: copyServerInfo(c.servers),
		policy:  c.policy,
	}
	for id, d := range c.devices {
		if id == failed {
			mapping[id] = -1
			continue
		}
		mapping[id] = len(next.devices)
		cp := *d
		cp.ID = len(next.devices)
		next.devices = append(next.devices, &cp)
	}
	for i, oldI := range survivorIDs(len(c.devices), failed) {
		next.links[i] = make([]Link, n)
		for j, oldJ := range survivorIDs(len(c.devices), failed) {
			if i == j {
				continue
			}
			next.links[i][j] = c.links[oldI][oldJ]
		}
	}
	return next, mapping, nil
}

// JoinSpec describes a device joining an existing cluster (the inverse of a
// failure): what class it is and where it lands in the topology.
type JoinSpec struct {
	// Class names the joining device's class; empty means V100.
	Class string
	// Server is the index of an existing server the device is installed in,
	// or -1 (NewServer) for a machine newly added to the fleet.
	Server int
	// Rack places a new server; ignored when joining an existing server.
	Rack int
	// Interconnect is a new server's intra-server link kind
	// (InterconnectNVLink or InterconnectPCIe); empty means NVLink. Ignored
	// when joining an existing server.
	Interconnect string
}

// NewServer is the JoinSpec.Server value for a device arriving on a machine
// not yet part of the cluster.
const NewServer = -1

// Grow returns a new cluster with one device appended — the elastic
// scale-out path. Existing devices keep their IDs, names, servers and
// pairwise links (so placements computed for the old cluster remain valid);
// the joining device gets ID NumDevices() and links synthesized from the
// cluster's tiered link policy. The second return is the joined device.
func (c *Cluster) Grow(j JoinSpec) (*Cluster, *Device, error) {
	class, ok := ClassByName(j.Class)
	switch {
	case j.Class == "":
		class = builtinClasses[ClassV100]
	case !ok:
		return nil, nil, fmt.Errorf("grow: unknown device class %q", j.Class)
	}

	server := j.Server
	servers := copyServerInfo(c.servers)
	if server == NewServer {
		// New machines get the next unused server index.
		server = 0
		for s := range servers {
			if s >= server {
				server = s + 1
			}
		}
		interconnect := j.Interconnect
		switch interconnect {
		case "":
			interconnect = InterconnectNVLink
		case InterconnectNVLink, InterconnectPCIe:
		default:
			return nil, nil, fmt.Errorf("grow: unknown interconnect %q", j.Interconnect)
		}
		if j.Rack < 0 {
			return nil, nil, fmt.Errorf("grow: negative rack %d", j.Rack)
		}
		servers[server] = serverInfo{rack: j.Rack, interconnect: interconnect}
	} else if _, ok := servers[server]; !ok {
		return nil, nil, fmt.Errorf("grow: server %d not in cluster", server)
	}

	id := len(c.devices)
	joined := class.newDevice(id, c.freeDeviceName(server), server, servers[server].rack)
	n := id + 1
	next := &Cluster{
		devices: make([]*Device, 0, n),
		links:   make([][]Link, n),
		servers: servers,
		policy:  c.policy,
	}
	for _, d := range c.devices {
		cp := *d
		next.devices = append(next.devices, &cp)
	}
	next.devices = append(next.devices, joined)
	for i := 0; i < n; i++ {
		next.links[i] = make([]Link, n)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
			case i < id && j < id:
				next.links[i][j] = c.links[i][j]
			default:
				next.links[i][j] = next.policy.linkFor(next.devices[i], next.devices[j], servers)
			}
		}
	}
	return next, joined, nil
}

// freeDeviceName picks the first unused "serverS/gpuG" name on the server —
// counting from the server's current device count, but probing upward so a
// cluster that lost a middle device (Without keeps survivor names) never
// hands a joiner a name already in use.
func (c *Cluster) freeDeviceName(server int) string {
	used := make(map[string]bool, len(c.devices))
	g := 0
	for _, d := range c.devices {
		if d.Server == server {
			g++
		}
		used[d.Name] = true
	}
	for {
		name := fmt.Sprintf("server%d/gpu%d", server, g)
		if !used[name] {
			return name
		}
		g++
	}
}

func copyServerInfo(m map[int]serverInfo) map[int]serverInfo {
	out := make(map[int]serverInfo, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// survivorIDs lists the original device IDs surviving the removal of
// `failed`, in order.
func survivorIDs(n, failed int) []int {
	ids := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != failed {
			ids = append(ids, i)
		}
	}
	return ids
}

// NumDevices returns the number of devices in the cluster.
func (c *Cluster) NumDevices() int { return len(c.devices) }

// Device returns the device with the given ID.
func (c *Cluster) Device(id int) *Device { return c.devices[id] }

// Devices returns all devices in ID order. The slice is shared; callers
// must not mutate it.
func (c *Cluster) Devices() []*Device { return c.devices }

// Link returns the link from device `from` to device `to`.
func (c *Cluster) Link(from, to int) Link { return c.links[from][to] }

// SlowestLink returns the link with the lowest bandwidth among all ordered
// pairs; with one device it returns a zero Link. The paper's rank
// computation needs the maximal communication time over device pairs, which
// this link realizes for any given tensor size.
func (c *Cluster) SlowestLink() Link {
	var slowest Link
	found := false
	for i := range c.devices {
		for j := range c.devices {
			if i == j {
				continue
			}
			l := c.links[i][j]
			if !found || transferCmp(l, slowest) > 0 {
				slowest = l
				found = true
			}
		}
	}
	return slowest
}

// transferCmp compares links by the time to move a representative 1 MiB
// tensor; positive means a is slower than b.
func transferCmp(a, b Link) int {
	const probe = float64(MiB)
	ta := a.Latency + probe/a.Bandwidth
	tb := b.Latency + probe/b.Bandwidth
	switch {
	case ta > tb:
		return 1
	case ta < tb:
		return -1
	default:
		return 0
	}
}

// TotalMemory returns the aggregate device memory of the cluster.
func (c *Cluster) TotalMemory() int64 {
	var total int64
	for _, d := range c.devices {
		total += d.MemoryBytes
	}
	return total
}

// Servers returns the number of distinct servers in the cluster.
func (c *Cluster) Servers() int {
	seen := make(map[int]bool)
	for _, d := range c.devices {
		seen[d.Server] = true
	}
	return len(seen)
}
