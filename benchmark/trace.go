package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// msgKind classifies the messages the traced transports see.
type msgKind int

const (
	kClientRequest msgKind = iota
	kForwardRequest
	kPropose
	kSupport
	kCertify
	kInform
	kCheckpoint
	kReadRequest
	kReadReply
	kLeaseGrant
	kVCRequest
	kNVPropose
	kOther
	nKinds
)

var kindNames = [nKinds]string{
	"ClientRequest", "ForwardRequest", "Propose", "Support", "Certify", "Inform",
	"Checkpoint", "ReadRequest", "ReadReply", "LeaseGrant", "VCRequest", "NVPropose", "Other",
}

func kindOf(msg any) msgKind {
	switch msg.(type) {
	case *protocol.ClientRequest:
		return kClientRequest
	case *protocol.ForwardRequest:
		return kForwardRequest
	case *poe.Propose:
		return kPropose
	case *poe.Support:
		return kSupport
	case *poe.Certify:
		return kCertify
	case *protocol.Inform:
		return kInform
	case *protocol.Checkpoint:
		return kCheckpoint
	case *protocol.ReadRequest:
		return kReadRequest
	case *protocol.ReadReply:
		return kReadReply
	case *protocol.LeaseGrant:
		return kLeaseGrant
	case *poe.VCRequest:
		return kVCRequest
	case *poe.NVPropose:
		return kNVPropose
	}
	return kOther
}

// Message sampling for the offline codec and crypto timings: every
// sampleEvery-th message of a kind is kept, up to maxSamples per kind.
const (
	sampleEvery = 16
	maxSamples  = 256
	// maxBatches bounds the view-0 proposals kept for the store and WAL
	// timings.
	maxBatches = 4096
)

// reqKey names a request: its client, its client-local sequence number, and
// which sequence space that number belongs to (tiered reads have their own).
type reqKey struct {
	client types.ClientID
	seq    uint64
	read   bool
}

// reqTrace is what the traced transports saw of one request. Times are zero
// when the event was not seen.
type reqTrace struct {
	key       reqKey
	target    types.NodeID // destination of the first send
	firstSend time.Time
	sends     int
	arrive    [clusterN]time.Time // first arrival in each replica's inbox
	propose   time.Time           // first PROPOSE carrying it
	proposer  types.ReplicaID
	informs   int
	quorum    time.Time // the nf-th INFORM sent
	served    time.Time // first unrepaired READREPLY sent
	server    types.ReplicaID
}

// tracer records what every node's transport sends and receives. All
// recording happens in the wrappers, outside the program: the wrappers see
// the same messages the replicas and clients exchange.
type tracer struct {
	// measuring gates the per-kind message counters to the window.
	measuring atomic.Bool

	mu        sync.Mutex
	reqs      map[types.Digest]*reqTrace
	msgs      [nKinds]int64
	bytes     [nKinds]int64
	sendCalls int64
	sendTime  time.Duration
	seen      [nKinds]int64
	samples   [nKinds][]wire.Message
	batches   map[types.SeqNum]types.Batch
	crashAt   time.Time
	firstVC   time.Time
	firstNV   time.Time
}

func newTracer() *tracer {
	return &tracer{
		reqs:    make(map[types.Digest]*reqTrace),
		batches: make(map[types.SeqNum]types.Batch),
	}
}

func (t *tracer) setCrash(at time.Time) {
	t.mu.Lock()
	t.crashAt = at
	t.mu.Unlock()
}

// wrap returns a transport that records into t and forwards to inner.
func (t *tracer) wrap(inner network.Transport) network.Transport {
	w := &tracedNet{inner: inner, t: t, inbox: make(chan network.Envelope, inboxBuffer), stop: make(chan struct{})}
	w.wg.Add(1)
	go w.forward()
	return w
}

// inboxBuffer lets the forwarder absorb a burst while the node is busy, so
// the wrapper does not stall the transport's read loops behind it.
const inboxBuffer = 4096

// tracedNet is a network.Transport that times Send and Broadcast and
// observes every inbound envelope before handing it on.
type tracedNet struct {
	inner     network.Transport
	t         *tracer
	inbox     chan network.Envelope
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

func (w *tracedNet) Node() types.NodeID             { return w.inner.Node() }
func (w *tracedNet) Inbox() <-chan network.Envelope { return w.inbox }

func (w *tracedNet) Send(to types.NodeID, msg any) {
	w.t.onSend(w.inner.Node(), to, 1, msg)
	start := time.Now()
	w.inner.Send(to, msg)
	w.t.onSendDone(time.Since(start))
}

func (w *tracedNet) Broadcast(tos []types.NodeID, msg any) {
	w.t.onSend(w.inner.Node(), -1, len(tos), msg)
	start := time.Now()
	w.inner.Broadcast(tos, msg)
	w.t.onSendDone(time.Since(start))
}

func (w *tracedNet) Close() error {
	err := w.inner.Close()
	w.closeOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
	return err
}

// forward moves envelopes from the inner inbox to the wrapper's, recording
// replica-side arrivals. It ends when the inner inbox closes or the wrapper
// is closed, and closes the wrapper's inbox.
func (w *tracedNet) forward() {
	defer w.wg.Done()
	defer close(w.inbox)
	self := w.inner.Node()
	for {
		select {
		case <-w.stop:
			return
		case env, ok := <-w.inner.Inbox():
			if !ok {
				return
			}
			if self.IsReplica() {
				w.t.onArrive(self.Replica(), env.Msg)
			}
			select {
			case w.inbox <- env:
			case <-w.stop:
				return
			}
		}
	}
}

// onArrive records the first arrival of a client or read request in a
// replica's inbox. The envelope is not yet visible to the replica, so
// memoizing its digest here races with nothing.
func (t *tracer) onArrive(self types.ReplicaID, msg any) {
	var d types.Digest
	switch m := msg.(type) {
	case *protocol.ClientRequest:
		d = m.Req.Digest()
	case *protocol.ReadRequest:
		d = m.Req.Digest()
	default:
		return
	}
	now := time.Now()
	t.mu.Lock()
	if rt := t.reqs[d]; rt != nil && int(self) < clusterN && rt.arrive[self].IsZero() {
		rt.arrive[self] = now
	}
	t.mu.Unlock()
}

// onSend records one Send (to >= 0, dests == 1) or Broadcast (dests
// destinations) from node from.
func (t *tracer) onSend(from, to types.NodeID, dests int, msg any) {
	now := time.Now()
	k := kindOf(msg)
	size := wire.EncodedSize(msg)
	var reqDigests []types.Digest
	switch m := msg.(type) {
	case *protocol.ClientRequest:
		// The client signed the request, so its digest is memoized.
		reqDigests = []types.Digest{m.Req.Digest()}
	case *protocol.ReadRequest:
		reqDigests = []types.Digest{m.Req.Digest()}
	case *poe.Propose:
		// Every proposed request passed the primary's verify pipeline,
		// which memoized its digest.
		reqDigests = make([]types.Digest, len(m.Batch.Requests))
		for i := range m.Batch.Requests {
			reqDigests[i] = m.Batch.Requests[i].Digest()
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.measuring.Load() {
		t.msgs[k] += int64(dests)
		if size > 0 {
			t.bytes[k] += int64(size * dests)
		}
	}
	t.seen[k]++
	if wm, ok := msg.(wire.Message); ok && t.seen[k]%sampleEvery == 1 && len(t.samples[k]) < maxSamples {
		t.samples[k] = append(t.samples[k], wm)
	}
	switch m := msg.(type) {
	case *protocol.ClientRequest:
		t.clientSend(reqDigests[0], reqKey{m.Req.Txn.Client, m.Req.Txn.Seq, false}, to, now)
	case *protocol.ReadRequest:
		t.clientSend(reqDigests[0], reqKey{m.Req.Txn.Client, m.Req.Txn.Seq, true}, to, now)
	case *poe.Propose:
		for _, d := range reqDigests {
			if rt := t.reqs[d]; rt != nil && rt.propose.IsZero() {
				rt.propose, rt.proposer = now, from.Replica()
			}
		}
		if m.View == 0 && from == types.ReplicaNode(0) && len(t.batches) < maxBatches {
			t.batches[m.Seq] = m.Batch
		}
	case *protocol.Inform:
		if rt := t.reqs[m.Digest]; rt != nil {
			rt.informs++
			if rt.informs == clusterN-clusterF {
				rt.quorum = now
			}
		}
	case *protocol.ReadReply:
		if rt := t.reqs[m.Digest]; rt != nil && !m.Repaired && rt.served.IsZero() {
			rt.served, rt.server = now, from.Replica()
		}
	case *poe.VCRequest:
		if !t.crashAt.IsZero() && t.firstVC.IsZero() {
			t.firstVC = now
		}
	case *poe.NVPropose:
		if !t.crashAt.IsZero() && t.firstNV.IsZero() {
			t.firstNV = now
		}
	}
}

func (t *tracer) clientSend(d types.Digest, key reqKey, to types.NodeID, now time.Time) {
	if rt := t.reqs[d]; rt != nil {
		rt.sends++
		return
	}
	t.reqs[d] = &reqTrace{key: key, target: to, firstSend: now, sends: 1}
}

func (t *tracer) onSendDone(d time.Duration) {
	if !t.measuring.Load() {
		return
	}
	t.mu.Lock()
	t.sendCalls++
	t.sendTime += d
	t.mu.Unlock()
}

// byKey indexes the request traces by request key. Call after the run.
func (t *tracer) byKey() map[reqKey]*reqTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[reqKey]*reqTrace, len(t.reqs))
	for _, rt := range t.reqs {
		out[rt.key] = rt
	}
	return out
}
