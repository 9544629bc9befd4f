package sim

import (
	"math/rand"
	"sort"
	"time"

	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/runtime"
)

// eventKind discriminates heap events.
type eventKind int

const (
	evOpDone eventKind = iota + 1
	evXferDone
)

type event struct {
	at   int64 // nanoseconds
	seq  int   // tie-break for determinism
	kind eventKind
	op   int      // evOpDone: the op; evXferDone: unused
	dev  int      // evOpDone: the device
	ch   *channel // evXferDone: the channel that completed its head
}

// eventHeap is a binary min-heap on (at, seq).
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*h) && eventLess((*h)[l], (*h)[small]) {
			small = l
		}
		if r < len(*h) && eventLess((*h)[r], (*h)[small]) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// readyNode is one entry of a device ready queue.
type readyNode struct {
	k1, k2 int64 // FIFO: (readyTime, opID); Priority: (priority, opID)
	op     int
}

// readyQueue is a binary min-heap of readyNodes.
type readyQueue []readyNode

func (q *readyQueue) push(n readyNode) {
	*q = append(*q, n)
	i := len(*q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !nodeLess((*q)[i], (*q)[p]) {
			break
		}
		(*q)[i], (*q)[p] = (*q)[p], (*q)[i]
		i = p
	}
}

func (q *readyQueue) pop() readyNode {
	old := *q
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*q = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*q) && nodeLess((*q)[l], (*q)[small]) {
			small = l
		}
		if r < len(*q) && nodeLess((*q)[r], (*q)[small]) {
			small = r
		}
		if small == i {
			break
		}
		(*q)[i], (*q)[small] = (*q)[small], (*q)[i]
		i = small
	}
	return top
}

func nodeLess(a, b readyNode) bool {
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return a.op < b.op
}

// xfer is one pending or in-flight tensor copy. One xfer serves every
// consumer of the producer's output on the destination device (TensorFlow
// sends one copy per device, not per edge): the producer's out-edges whose
// consumer is placed on dest, in edge order.
type xfer struct {
	producer  int
	copy      int // index of the copy's consumer count in runState.copyRefs
	consumers int // how many consumers the copy serves
	priority  int // the smallest priority index among them (Priority only)
	src, dest int // device endpoints (channels may be shared across pairs)
	bytes     int64
	enqueued  int64
	started   int64
}

// channel is the copy engine for one ordered device pair: transfers on the
// same pair serialize; different pairs proceed in parallel. queue[head:]
// are the pending and in-flight transfers; the slice is rewound when it
// drains, so a channel reuses its storage.
type channel struct {
	from, to int
	queue    []xfer
	head     int
	busy     bool
}

type runState struct {
	e     *Engine
	g     *graph.Graph
	edges []graph.Edge // g.Edges(), indexed by the graph's edge indexes
	place []int
	cfg   Config

	now    int64
	events eventHeap
	seq    int

	pendingInputs []int
	finished      []bool
	finishedCount int

	deviceBusy []bool
	queues     []readyQueue
	channels   map[[2]int]*channel

	memUsed []int64
	memPeak []int64
	outRefs []int // remaining releases before an op's output is freed
	// copyRefs holds, per received copy, the consumers that have not yet
	// released it; edgeCopy maps each cross-device edge to its copy.
	copyRefs []int
	edgeCopy []int32

	spans      []Span
	transfers  []Transfer
	computeNS  []int64
	memcpyNS   []int64
	rng        *rand.Rand
	priorities []int

	// Per-run scratch onOpDone routes a finished op's output through:
	// the destination devices of its remote consumers, and per device the
	// number of those consumers, their most urgent priority index and the
	// copy that serves them.
	dests      []int
	destCount  []int
	destUrgent []int
	destCopy   []int

	// Fault injection (see Config.Faults). Times are iteration-relative
	// nanoseconds: fault AtNs minus the epoch.
	epoch      int64       // Config.FaultEpoch in ns
	hasFail    bool        // a device failure is scheduled
	failRel    int64       // failure time relative to iteration start
	failDev    int         // failing device
	failAbs    int64       // failure time on the training timeline
	stragglers []FaultSpec // straggler faults, plan order
	linkFaults []FaultSpec // link-degrade faults, plan order
}

func newRunState(e *Engine, g *graph.Graph, placement []int, cfg Config) *runState {
	n := g.NumOps()
	d := e.cluster.NumDevices()
	// Every cross-device edge yields one Transfer record, and at most one
	// copy.
	remote := 0
	for _, ed := range g.Edges() {
		if placement[ed.From] != placement[ed.To] {
			remote++
		}
	}
	r := &runState{
		e:             e,
		g:             g,
		edges:         g.Edges(),
		place:         placement,
		cfg:           cfg,
		pendingInputs: make([]int, n),
		finished:      make([]bool, n),
		deviceBusy:    make([]bool, d),
		queues:        make([]readyQueue, d),
		channels:      make(map[[2]int]*channel),
		memUsed:       make([]int64, d),
		memPeak:       make([]int64, d),
		outRefs:       make([]int, n),
		copyRefs:      make([]int, 0, remote),
		edgeCopy:      make([]int32, g.NumEdges()),
		spans:         make([]Span, 0, n),
		transfers:     make([]Transfer, 0, remote),
		computeNS:     make([]int64, d),
		memcpyNS:      make([]int64, d),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		priorities:    cfg.Priorities,
		destCount:     make([]int, d),
		destUrgent:    make([]int, d),
		destCopy:      make([]int, d),
	}
	for i := range r.outRefs {
		r.outRefs[i] = -1 // unset until the op finishes
	}
	r.prepareFaults()
	return r
}

// prepareFaults indexes the configured fault plan for the event loop: the
// earliest scheduled device failure (ties broken by lowest device ID, so
// injection is deterministic) plus the straggler and link-degradation lists.
func (r *runState) prepareFaults() {
	if r.cfg.Faults == nil {
		return
	}
	r.epoch = int64(r.cfg.FaultEpoch)
	for _, f := range r.cfg.Faults.Faults {
		switch f.runtimeKind() {
		case runtime.FaultDeviceFailure:
			if !r.hasFail || f.AtNs < r.failAbs ||
				(f.AtNs == r.failAbs && f.Device < r.failDev) {
				r.hasFail = true
				r.failAbs = f.AtNs
				r.failRel = f.AtNs - r.epoch
				r.failDev = f.Device
			}
		case runtime.FaultStraggler:
			r.stragglers = append(r.stragglers, f)
		case runtime.FaultLinkDegrade:
			r.linkFaults = append(r.linkFaults, f)
		}
	}
}

// stragglerFactor returns the combined slowdown of ops starting now on dev:
// the product of every straggler fault active on the device at the absolute
// start time.
func (r *runState) stragglerFactor(dev int) float64 {
	factor := 1.0
	for _, f := range r.stragglers {
		if f.Device == dev && f.AtNs <= r.epoch+r.now {
			factor *= f.Factor
		}
	}
	return factor
}

// linkFactor returns the combined slowdown of transfers starting now from
// src to dest.
func (r *runState) linkFactor(src, dest int) float64 {
	factor := 1.0
	for _, f := range r.linkFaults {
		if f.From == src && f.To == dest && f.AtNs <= r.epoch+r.now {
			factor *= f.Factor
		}
	}
	return factor
}

// deviceLost builds the typed abort for the scheduled failure.
func (r *runState) deviceLost() *runtime.DeviceLostError {
	return &runtime.DeviceLostError{Device: r.failDev, At: time.Duration(r.failAbs)}
}

// jitter perturbs d by ±cfg.Jitter multiplicatively.
func (r *runState) jitter(d time.Duration) int64 {
	ns := int64(d)
	if r.cfg.Jitter <= 0 || ns == 0 {
		return ns
	}
	f := 1 + r.cfg.Jitter*(2*r.rng.Float64()-1)
	return int64(float64(ns) * f)
}

// alloc charges bytes to device dev, returning an OOM error when enabled
// and the capacity would be exceeded.
func (r *runState) alloc(dev int, bytes int64) error {
	r.memUsed[dev] += bytes
	if r.memUsed[dev] > r.memPeak[dev] {
		r.memPeak[dev] = r.memUsed[dev]
	}
	if !r.cfg.DisableMemoryCheck && r.memUsed[dev] > r.e.cluster.Device(dev).MemoryBytes {
		return &OOMError{
			Device:   dev,
			Needed:   r.memUsed[dev],
			Capacity: r.e.cluster.Device(dev).MemoryBytes,
		}
	}
	return nil
}

func (r *runState) free(dev int, bytes int64) {
	r.memUsed[dev] -= bytes
}

func (r *runState) execute() (*Result, error) {
	// Charge resident parameter/optimizer state up front.
	for _, op := range r.g.Ops() {
		static := graph.ParamStateFactor * op.ParamBytes
		if static > 0 {
			if err := r.alloc(r.place[op.ID], static); err != nil {
				return nil, err
			}
		}
	}

	// Seed the ready queues with entry ops.
	for _, op := range r.g.Ops() {
		r.pendingInputs[op.ID] = r.g.InDegree(op.ID)
		if r.pendingInputs[op.ID] == 0 {
			r.enqueueReady(op.ID)
		}
	}
	for dev := range r.queues {
		if err := r.kick(dev); err != nil {
			return nil, err
		}
	}

	// A failure scheduled at or before the iteration start kills the run
	// before any work happens.
	if r.hasFail && r.failRel <= 0 {
		return nil, r.deviceLost()
	}

	for len(r.events) > 0 {
		ev := r.events.pop()
		if r.hasFail && ev.at >= r.failRel {
			// The device dies before this event completes; the iteration's
			// work is lost and the caller must recover from checkpoint.
			return nil, r.deviceLost()
		}
		r.now = ev.at
		var err error
		switch ev.kind {
		case evOpDone:
			err = r.onOpDone(ev.op, ev.dev)
		case evXferDone:
			err = r.onXferDone(ev.ch)
		}
		if err != nil {
			return nil, err
		}
	}

	if r.finishedCount != r.g.NumOps() {
		return nil, ErrStalled
	}
	return r.buildResult(), nil
}

func (r *runState) enqueueReady(op int) {
	dev := r.place[op]
	var n readyNode
	switch r.cfg.Discipline {
	case Priority:
		n = readyNode{k1: int64(r.priorities[op]), k2: int64(op), op: op}
	case Unordered:
		n = readyNode{k1: int64(splitmix(uint64(op) + uint64(r.cfg.Seed))), k2: int64(op), op: op}
	default:
		n = readyNode{k1: r.now, k2: int64(op), op: op}
	}
	r.queues[dev].push(n)
}

// splitmix is SplitMix64, giving a deterministic but arbitrary ordering key
// for the Unordered discipline. The result is masked positive so heap keys
// compare sanely.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x ^ (x >> 31)) & (1<<62 - 1)
}

// kick starts the next ready op on dev if the device is idle.
func (r *runState) kick(dev int) error {
	if r.deviceBusy[dev] || len(r.queues[dev]) == 0 {
		return nil
	}
	n := r.queues[dev].pop()
	op := r.g.Op(n.op)
	if err := r.alloc(dev, op.OutputBytes+op.WorkspaceBytes); err != nil {
		return err
	}
	dur := r.jitter(r.e.oracle.Exec(op, r.e.cluster.Device(dev)))
	if f := r.stragglerFactor(dev); f != 1 {
		dur = int64(float64(dur) * f)
	}
	r.deviceBusy[dev] = true
	r.spans = append(r.spans, Span{
		Op:     n.op,
		Device: dev,
		Start:  time.Duration(r.now),
		End:    time.Duration(r.now + dur),
	})
	r.computeNS[dev] += dur
	r.seq++
	r.events.push(event{at: r.now + dur, seq: r.seq, kind: evOpDone, op: n.op, dev: dev})
	return nil
}

func (r *runState) onOpDone(opID, dev int) error {
	op := r.g.Op(opID)
	r.finished[opID] = true
	r.finishedCount++
	r.free(dev, op.WorkspaceBytes)

	// Release inputs this op was holding.
	for _, ei := range r.g.InEdgeIndex(opID) {
		e := &r.edges[ei]
		pdev := r.place[e.From]
		if pdev == dev {
			r.releaseRef(e.From)
		} else {
			k := r.edgeCopy[ei]
			r.copyRefs[k]--
			if r.copyRefs[k] == 0 {
				r.free(dev, e.Bytes)
			}
		}
	}

	// Route the output: count consumers by destination device.
	sameDev := 0
	var remoteBytes int64
	r.dests = r.dests[:0]
	for _, ei := range r.g.OutEdgeIndex(opID) {
		e := &r.edges[ei]
		cdev := r.place[e.To]
		if cdev == dev {
			sameDev++
			if err := r.notifyInput(e.To); err != nil {
				return err
			}
			continue
		}
		if r.destCount[cdev] == 0 {
			r.dests = append(r.dests, cdev)
			r.destUrgent[cdev] = maxPriority
			r.destCopy[cdev] = len(r.copyRefs)
			r.copyRefs = append(r.copyRefs, 0)
		}
		r.destCount[cdev]++
		r.edgeCopy[ei] = int32(r.destCopy[cdev])
		if r.cfg.Discipline == Priority && r.priorities[e.To] < r.destUrgent[cdev] {
			r.destUrgent[cdev] = r.priorities[e.To]
		}
		if e.Bytes > remoteBytes {
			remoteBytes = e.Bytes
		}
	}
	r.outRefs[opID] = sameDev + len(r.dests)
	if r.outRefs[opID] == 0 {
		r.free(dev, op.OutputBytes)
	}
	// Deterministic channel order.
	sort.Ints(r.dests)
	for _, d := range r.dests {
		r.enqueueTransfer(dev, d, xfer{
			producer:  opID,
			copy:      r.destCopy[d],
			consumers: r.destCount[d],
			priority:  r.destUrgent[d],
			src:       dev,
			dest:      d,
			bytes:     remoteBytes,
			enqueued:  r.now,
		})
		r.destCount[d] = 0
	}

	r.deviceBusy[dev] = false
	return r.kick(dev)
}

// releaseRef releases one hold on op's output, freeing it at zero.
func (r *runState) releaseRef(op int) {
	r.outRefs[op]--
	if r.outRefs[op] == 0 {
		r.free(r.place[op], r.g.Op(op).OutputBytes)
	}
}

// notifyInput marks one input of op as available; when the last input
// arrives the op is enqueued and its device kicked. The only possible error
// is an OOM raised while starting the op.
func (r *runState) notifyInput(op int) error {
	r.pendingInputs[op]--
	if r.pendingInputs[op] == 0 {
		r.enqueueReady(op)
		return r.kick(r.place[op])
	}
	return nil
}

func (r *runState) enqueueTransfer(from, to int, x xfer) {
	key := r.channelKey(from, to)
	ch, ok := r.channels[key]
	if !ok {
		ch = &channel{from: from, to: to}
		r.channels[key] = ch
	}
	ch.queue = append(ch.queue, x)
	r.pump(ch)
}

// channelKey picks the serialization domain of a transfer: per ordered
// device pair by default; per ordered server pair when SharedNIC models a
// single network interface per machine. Shared channels are keyed with
// negative values so they can never collide with device-pair keys.
func (r *runState) channelKey(from, to int) [2]int {
	if r.cfg.SharedNIC {
		fs := r.e.cluster.Device(from).Server
		ts := r.e.cluster.Device(to).Server
		if fs != ts {
			return [2]int{-1 - fs, -1 - ts}
		}
	}
	return [2]int{from, to}
}

// pump starts the channel's next transfer if the channel is idle. Under
// FIFO the queue order (enqueue order) is kept; under Priority the pending
// transfer whose most urgent consumer has the smallest priority index goes
// first — FastT's order enforcement covers send/recv scheduling too.
func (r *runState) pump(ch *channel) {
	pending := ch.queue[ch.head:]
	if ch.busy || len(pending) == 0 {
		return
	}
	if r.cfg.Discipline == Priority && len(pending) > 1 {
		best := 0
		for i := 1; i < len(pending); i++ {
			if pending[i].priority < pending[best].priority {
				best = i
			}
		}
		if best != 0 {
			pending[0], pending[best] = pending[best], pending[0]
		}
	}
	ch.busy = true
	head := &pending[0]
	head.started = r.now
	link := r.e.cluster.Link(head.src, head.dest)
	dur := r.jitter(kernels.TransferTime(head.bytes, link))
	if f := r.linkFactor(head.src, head.dest); f != 1 {
		dur = int64(float64(dur) * f)
	}
	r.seq++
	r.events.push(event{at: r.now + dur, seq: r.seq, kind: evXferDone, ch: ch})
}

// maxPriority starts the search for a transfer's most urgent consumer: it
// is less urgent than any priority index.
const maxPriority = int(^uint(0) >> 1)

func (r *runState) onXferDone(ch *channel) error {
	head := ch.queue[ch.head]
	ch.head++
	if ch.head == len(ch.queue) {
		ch.queue, ch.head = ch.queue[:0], 0
	}
	ch.busy = false

	// Allocate the received copy on the destination.
	if err := r.alloc(head.dest, head.bytes); err != nil {
		return err
	}
	r.copyRefs[head.copy] = head.consumers
	r.releaseRef(head.producer)

	end := time.Duration(r.now)
	start := time.Duration(head.started)
	out := r.g.OutEdgeIndex(head.producer)
	for _, ei := range out {
		if c := r.edges[ei].To; r.place[c] == head.dest {
			r.transfers = append(r.transfers, Transfer{
				From:     head.src,
				To:       head.dest,
				Producer: head.producer,
				Consumer: c,
				Bytes:    head.bytes,
				Enqueued: time.Duration(head.enqueued),
				Start:    start,
				End:      end,
			})
		}
	}
	r.memcpyNS[head.dest] += int64(end - start)

	for _, ei := range out {
		if c := r.edges[ei].To; r.place[c] == head.dest {
			if err := r.notifyInput(c); err != nil {
				return err
			}
		}
	}
	r.pump(ch)
	return nil
}

func (r *runState) buildResult() *Result {
	res := &Result{
		Spans:       r.spans,
		Transfers:   r.transfers,
		ComputeBusy: make([]time.Duration, len(r.computeNS)),
		MemcpyBusy:  make([]time.Duration, len(r.memcpyNS)),
		PeakMemory:  append([]int64(nil), r.memPeak...),
	}
	for i, ns := range r.computeNS {
		res.ComputeBusy[i] = time.Duration(ns)
	}
	for i, ns := range r.memcpyNS {
		res.MemcpyBusy[i] = time.Duration(ns)
	}
	var makespan time.Duration
	for _, s := range r.spans {
		if s.End > makespan {
			makespan = s.End
		}
	}
	res.Makespan = makespan
	// Report the non-fatal faults that were active during this iteration's
	// window, in schedule order. The executor filters them to once-only
	// across iterations.
	for _, f := range r.stragglers {
		if f.AtNs < r.epoch+int64(makespan) {
			res.Faults = append(res.Faults, f.Event())
		}
	}
	for _, f := range r.linkFaults {
		if f.AtNs < r.epoch+int64(makespan) {
			res.Faults = append(res.Faults, f.Event())
		}
	}
	sort.SliceStable(res.Faults, func(i, j int) bool {
		return res.Faults[i].At < res.Faults[j].At
	})
	sort.Slice(res.Spans, func(i, j int) bool {
		if res.Spans[i].Start != res.Spans[j].Start {
			return res.Spans[i].Start < res.Spans[j].Start
		}
		return res.Spans[i].Op < res.Spans[j].Op
	})
	return res
}
