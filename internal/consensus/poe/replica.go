package poe

import (
	"context"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
)

type status int

const (
	statusNormal status = iota
	statusViewChange
)

// Byzantine lets tests inject arbitrary malicious primary behaviour
// (Example 3 of the paper). A nil Byzantine is honest. Most callers should
// prefer the declarative, cross-protocol Options.Adversary instead; this
// interface remains for attacks a spec cannot express.
type Byzantine interface {
	// ProposeTo rewrites (or suppresses, by returning nil) the proposal the
	// primary sends to one replica. Equivocation returns different batches
	// for different replicas; darkness returns nil for a subset.
	ProposeTo(to types.ReplicaID, p *Propose) *Propose
	// SilenceCertify suppresses the CERTIFY broadcast for a sequence number
	// (TS mode), leaving replicas supported-but-uncommitted.
	SilenceCertify(seq types.SeqNum) bool
}

// Options configure a PoE replica.
type Options struct {
	protocol.RuntimeOptions
	// Adversary makes this replica a Byzantine primary per the shared
	// cross-protocol spec (equivocating PROPOSE variants, selective
	// silence, withheld CERTIFY broadcasts). Nil means honest. Ignored when
	// Byz is also set.
	Adversary *protocol.AdversarySpec
	// Byz injects custom malicious behaviour for tests; nil means honest.
	Byz Byzantine
	// Tick overrides the housekeeping interval (default
	// Config.TickInterval: a quarter of the view timeout, at most 10 ms).
	Tick time.Duration
}

// specByz adapts the declarative cross-protocol adversary spec to PoE's
// Byzantine hook.
type specByz struct{ spec *protocol.AdversarySpec }

func (s specByz) ProposeTo(to types.ReplicaID, p *Propose) *Propose {
	switch s.spec.ActionFor(to) {
	case protocol.ProposeSilence:
		return nil
	case protocol.ProposeEquivocate:
		alt := *p
		alt.Batch = protocol.EquivocateBatch(p.Batch)
		return &alt
	default:
		return p
	}
}

func (s specByz) SilenceCertify(seq types.SeqNum) bool { return s.spec.SilenceCert(seq) }

// Replica is one PoE replica: the backup role of Fig 3 plus, when
// id = v mod n, the primary role, plus the view-change algorithm of Fig 5.
// All state is confined to the Run goroutine.
type Replica struct {
	rt  *protocol.Runtime
	byz Byzantine

	view        types.View
	status      status
	nextPropose types.SeqNum
	slots       map[types.SeqNum]*slot

	// failure detection
	pendingReqs  map[types.Digest]pendingReq
	lastProgress time.Time
	curTimeout   time.Duration

	// execHigh is the highest executed client sequence number per client.
	// Pipelined clients retry by broadcast, and a retry of an already
	// executed request can reach a backup after afterExecution cleared that
	// request's pending entry — without this watermark the late copy would
	// be tracked as pending forever, age past curTimeout once load stops,
	// and drive spurious view changes until the stale set drains. The reply
	// cache cannot stand in for it: it keeps only the latest reply per
	// client, so retries of older in-flight sequences miss it.
	execHigh map[types.ClientID]uint64

	// view-change state
	vcTarget   types.View // view we are trying to move to while in statusViewChange
	vcStarted  time.Time
	vcResent   time.Time
	vcExecMark types.SeqNum // last executed seq when the view change started
	vcVotes    map[types.View]map[types.ReplicaID]*VCRequest
	sentVC     map[types.View]bool
	lastNV     *NVPropose // cached by the new primary for late joiners

	// catchup marks a replica restarted from durable state: the first tick
	// proactively fetches past the recovered prefix.
	catchup bool

	// strongQ holds STRONG reads the primary deferred because its executed
	// head still trailed its proposals; drained after every execution burst
	// and on the tick, with a bounded wait before falling back to ordering.
	strongQ protocol.StrongReads

	tick time.Duration
}

type slot struct {
	view        types.View
	haveBatch   bool
	batch       types.Batch
	digest      types.Digest // h = D(k||v||D(batch))
	supported   bool
	shares      map[types.ReplicaID]crypto.Share
	committed   bool
	pendingCert *Certify  // certify that arrived before the proposal
	created     time.Time // when this slot appeared (failure-detection grace)
}

type pendingReq struct {
	req   types.Request
	since time.Time
}

// New creates a PoE replica bound to a transport. Call Run to start it.
func New(cfg protocol.Config, ring *crypto.KeyRing, net network.Transport, opts Options) (*Replica, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := protocol.NewRuntime(cfg, ring, net, opts.RuntimeOptions)
	byz := opts.Byz
	if byz == nil && opts.Adversary != nil {
		byz = specByz{opts.Adversary}
	}
	r := &Replica{
		rt:           rt,
		byz:          byz,
		nextPropose:  rt.Exec.LastExecuted() + 1,
		slots:        make(map[types.SeqNum]*slot),
		pendingReqs:  make(map[types.Digest]pendingReq),
		execHigh:     make(map[types.ClientID]uint64),
		lastProgress: time.Now(),
		curTimeout:   cfg.ViewTimeout,
		vcVotes:      make(map[types.View]map[types.ReplicaID]*VCRequest),
		sentVC:       make(map[types.View]bool),
		tick:         cfg.TickInterval(opts.Tick),
	}
	rt.Sync.AfterInstall = r.afterInstall
	if rt.RecoveredSeq > 0 {
		// Crash-restart: resume sequencing after the recovered prefix and
		// rejoin in the view of the last durably executed batch — the
		// cluster may have moved further, but the ordinary view-change
		// catch-up handles that, exactly as it does for a replica that
		// missed the view change in the dark. The first tick issues a
		// Fetch so the replica closes the gap to the live cluster even if
		// no new proposals arrive to reveal it.
		r.view = rt.Exec.Chain().Head().View
		r.catchup = true
	}
	if rt.Store != nil {
		// Durable (re)start — including a wiped rejoin that recovered
		// nothing: ask peers whether a snapshot is needed rather than wait
		// for checkpoint votes an idle cluster will never emit.
		rt.Sync.Probe()
	}
	return r, nil
}

// Runtime exposes the replica's runtime for inspection by tests and the
// harness (metrics, executor state). The returned value must be treated as
// read-mostly while the replica runs.
func (r *Replica) Runtime() *protocol.Runtime { return r.rt }

// View returns the replica's current view (for tests; racy while running).
func (r *Replica) View() types.View { return r.view }

// Run processes messages until the context is cancelled. Inbound messages
// pass through the parallel authentication pipeline: their authenticators
// are verified on worker goroutines and invalid messages are dropped.
// Outbound messages leave unsigned through the egress pipeline, which
// computes authenticators off-loop and releases sends in submission order;
// its Local channel carries the deferred self-votes (own SUPPORT share,
// own checkpoint vote) back onto the loop. The loop below — the replica
// state machine — therefore performs no asymmetric crypto in either
// direction on the normal-case path.
func (r *Replica) Run(ctx context.Context) {
	ticker := time.NewTicker(r.tick)
	defer ticker.Stop()
	inbox := r.rt.StartPipeline(ctx, r.verifyInbound)
	for {
		select {
		case <-ctx.Done():
			return
		case env, ok := <-inbox:
			if !ok {
				return
			}
			r.rt.Metrics.MessagesIn.Add(1)
			r.dispatch(env)
		case fn := <-r.rt.Egress.Local():
			fn()
		case <-ticker.C:
			r.onTick()
		case <-r.rt.Batcher.Due():
			r.proposeReady(r.rt.Batcher.Ripe(time.Now()))
		}
	}
}

func (r *Replica) dispatch(env network.Envelope) {
	switch m := env.Msg.(type) {
	case *protocol.ClientRequest:
		r.onClientRequest(env.From, &m.Req)
	case *protocol.ForwardRequest:
		r.onForwardRequest(&m.Req)
	case *protocol.ReadRequest:
		r.onReadRequest(&m.Req)
	case *protocol.LeaseGrant:
		r.rt.OnLeaseGrant(m)
	case *Propose:
		r.onPropose(env.From, m)
	case *Support:
		r.onSupport(env.From, m)
	case *Certify:
		r.onCertify(env.From, m)
	case *protocol.Checkpoint:
		r.rt.OnCheckpoint(m)
	case *protocol.Fetch:
		r.rt.HandleFetch(m)
	case *protocol.FetchReply:
		r.onFetchReply(m)
	case *protocol.SnapshotRequest:
		r.rt.HandleSnapshotRequest(m)
	case *protocol.SnapshotOffer:
		r.rt.Sync.OnOffer(m)
	case *protocol.SnapshotChunk:
		r.rt.Sync.OnChunk(m)
	case *VCRequest:
		r.onVCRequest(m)
	case *NVPropose:
		r.onNVPropose(env.From, m)
	}
}

func (r *Replica) isPrimary() bool { return r.rt.Cfg.IsPrimary(r.view) }

func (r *Replica) primaryNode() types.NodeID {
	return types.ReplicaNode(r.rt.Cfg.Primary(r.view))
}

// --- client requests ---

func (r *Replica) onClientRequest(from types.NodeID, req *types.Request) {
	// Origin and signature were checked by the authentication pipeline.
	if !from.IsClient() || req.Txn.Client != from.Client() {
		return
	}
	if r.rt.ReplayReply(req) {
		return
	}
	if r.status != statusNormal {
		// Remember the request; it is re-forwarded once the new view starts.
		r.trackPending(req)
		return
	}
	if r.isPrimary() {
		r.rt.Batcher.Add(*req)
		r.proposeReady(false)
		return
	}
	// A client only contacts a backup when it suspects the primary: forward
	// the request and start the failure-detection timer (§II-B).
	r.trackPending(req)
	fwd := &protocol.ForwardRequest{Req: *req}
	r.rt.Net.Send(r.primaryNode(), fwd)
}

func (r *Replica) onForwardRequest(req *types.Request) {
	if r.status != statusNormal || !r.isPrimary() {
		return
	}
	if r.rt.ReplayReply(req) {
		return
	}
	r.rt.Batcher.Add(*req)
	r.proposeReady(false)
}

// --- hybrid-consistency read path ---

// onReadRequest serves a tiered read-only request without ordering when the
// tier's precondition holds, and falls back to the ordering pipeline
// otherwise. The verify pipeline already checked the client signature and
// that the transaction is read-only with a non-ordered tier.
func (r *Replica) onReadRequest(req *types.Request) {
	switch req.Txn.Consistency {
	case types.ConsistencySpeculative:
		// Any replica answers from its executed (speculative) prefix, in any
		// status: the reply is tagged with the serving (seq, state digest)
		// and re-answered through the repair path if a rollback truncates it.
		r.rt.ServeLocalRead(req, types.ConsistencySpeculative, r.view)
	case types.ConsistencyStrong:
		if r.tryServeStrong(req) {
			return
		}
		if r.isPrimary() && r.status == statusNormal {
			// Lease held but the executed head trails the proposals (or the
			// lease is one renewal short): park the read; afterExecution
			// drains it the moment the head catches up.
			r.strongQ.Defer(req, time.Now())
			return
		}
		r.fallbackRead(req)
	default:
		r.fallbackRead(req)
	}
}

// tryServeStrong answers a STRONG read from the local executed prefix iff
// this replica is the primary, holds a quorum read lease, and is caught up
// (executed head == proposal head, so every write it has acknowledged is in
// the answered prefix). Under a valid lease no view change can assemble a
// quorum — every grantor promised not to join a higher view — so no
// conflicting write can commit elsewhere while the serve is current;
// when the lease cannot be validated the read simply pays for ordering, so
// linearizability never rests on clock synchronization.
func (r *Replica) tryServeStrong(req *types.Request) bool {
	if !r.isPrimary() || r.status != statusNormal {
		return false
	}
	if r.rt.Exec.LastExecuted()+1 != r.nextPropose {
		return false
	}
	if !r.rt.Lease.HolderValid(r.view) {
		return false
	}
	r.rt.ServeLocalRead(req, types.ConsistencyStrong, r.view)
	return true
}

// fallbackRead routes a tiered read through the ordering pipeline: the
// primary batches it like any write; a backup forwards it. Fallback reads are
// dedup-exempt end to end (they use their own client-local sequence space),
// so they pass the batcher watermark, the executor's dedup, and the reply
// ring without colliding with writes.
func (r *Replica) fallbackRead(req *types.Request) {
	r.rt.Metrics.ReadFallbacks.Add(1)
	if r.isPrimary() && r.status == statusNormal {
		r.rt.Batcher.Add(*req)
		r.proposeReady(false)
		return
	}
	r.rt.Net.Send(r.primaryNode(), &protocol.ForwardRequest{Req: *req})
}

// drainStrongReads retries deferred STRONG reads, falling back to ordering
// for any that waited longer than half a lease duration.
func (r *Replica) drainStrongReads(now time.Time) {
	if r.strongQ.Len() == 0 {
		return
	}
	r.strongQ.Drain(now, r.rt.Cfg.LeaseDuration/2, r.tryServeStrong, r.fallbackRead)
}

func (r *Replica) trackPending(req *types.Request) {
	if req.Txn.Seq <= r.execHigh[req.Txn.Client] {
		// Late retry of an already executed request (clients propose their
		// sequences in order over FIFO links, so the watermark is exact).
		return
	}
	d := req.Digest()
	if _, ok := r.pendingReqs[d]; !ok {
		r.pendingReqs[d] = pendingReq{req: *req, since: time.Now()}
	}
}

// --- primary: propose ---

// proposeReady proposes as many batches as the batcher and the out-of-order
// window allow. With force, a lingering partial batch is proposed too.
func (r *Replica) proposeReady(force bool) {
	if !r.isPrimary() || r.status != statusNormal {
		return
	}
	lastExec := r.rt.Exec.LastExecuted()
	for r.nextPropose <= lastExec+types.SeqNum(r.rt.Cfg.Window) {
		batch, ok := r.rt.Batcher.Take(force)
		if !ok {
			return
		}
		r.propose(batch)
	}
}

func (r *Replica) propose(batch types.Batch) {
	seq := r.nextPropose
	r.nextPropose++
	m := &Propose{View: r.view, Seq: seq, Batch: batch}
	r.rt.Metrics.ProposedBatches.Add(1)
	if r.byz != nil {
		// Byzantine variants sign inline: the attack path is not the hot
		// path, and per-target variants defeat single-payload batching.
		m.Auth = r.rt.AuthBroadcast(m.SignedPayload())
		for i := 0; i < r.rt.Cfg.N; i++ {
			id := types.ReplicaID(i)
			if id == r.rt.Cfg.ID {
				continue
			}
			variant := r.byz.ProposeTo(id, m)
			if variant == nil {
				continue
			}
			if variant != m {
				variant.Auth = r.rt.AuthBroadcast(variant.SignedPayload())
			}
			r.rt.SendReplica(id, variant)
		}
	} else {
		// The payload digest is taken on the loop (memoizing the batch
		// digest before the message is shared); the signature/MAC vector is
		// computed on the egress pool and the broadcast released in order.
		payload := m.SignedPayload()
		r.rt.Egress.Enqueue(
			func() { m.Auth = r.rt.AuthBroadcast(payload) },
			func() { r.rt.Broadcast(m) },
			nil)
	}
	r.handlePropose(r.rt.Cfg.ID, m)
}

// --- backup: support ---

func (r *Replica) onPropose(from types.NodeID, m *Propose) {
	if !from.IsReplica() {
		return
	}
	r.handlePropose(from.Replica(), m)
}

func (r *Replica) handlePropose(from types.ReplicaID, m *Propose) {
	cfg := r.rt.Cfg
	if r.status != statusNormal || m.View != r.view || from != cfg.Primary(r.view) {
		return
	}
	lastExec := r.rt.Exec.LastExecuted()
	if m.Seq <= lastExec {
		return
	}
	// High watermark: bound how far ahead of execution proposals are
	// accepted (the paper's active-set watermarks, §II-F).
	if m.Seq > lastExec+types.SeqNum(8*cfg.Window) {
		return
	}
	s := r.slot(m.Seq)
	if s.haveBatch {
		return // only the first k-th proposal in a view is supported (Fig 3, Line 12)
	}
	// Broadcast authenticator and per-request client signatures were already
	// verified by the authentication pipeline (verify.go); an invalid
	// proposal never reaches this point.
	s.view = m.View
	s.haveBatch = true
	s.batch = m.Batch
	s.digest = types.ProposalDigest(m.Seq, m.View, m.Batch.Digest())
	// Register the SUPPORT payload so the pipeline verifies incoming shares
	// for this slot off the event loop.
	r.rt.Pipeline.NoteDigest(kindSupport, m.View, m.Seq, s.digest[:])
	s.supported = true
	// The SUPPORT share is this replica's signature over the slot digest:
	// computed on the egress pool, released to the wire in order, and —
	// when this replica collects certificates itself — looped back onto the
	// event loop to count toward the slot's quorum. The loop-back re-checks
	// view and status: it runs later than this handler, and the slot may
	// have been abandoned by a view change in between.
	sup := &Support{View: m.View, Seq: m.Seq}
	digest := s.digest
	macMode := cfg.Scheme == crypto.SchemeMAC || cfg.Scheme == crypto.SchemeNone
	toPrimary := !macMode && !r.isPrimary()
	primary := r.primaryNode()
	collector := macMode || r.isPrimary()
	view := m.View
	var local func()
	if collector {
		local = func() {
			if r.status == statusNormal && r.view == view {
				r.addSupport(cfg.ID, sup, s)
			}
		}
	}
	r.rt.Egress.Enqueue(
		func() { sup.Share = r.rt.TS.Share(digest[:]) },
		func() {
			if macMode {
				// MAC instantiation (Appendix A): SUPPORT is broadcast
				// all-to-all and every replica assembles the certificate.
				r.rt.Broadcast(sup)
			} else if toPrimary {
				// TS instantiation: SUPPORT goes to the primary only.
				r.rt.Net.Send(primary, sup)
			}
		},
		local)
	if s.pendingCert != nil {
		cert := s.pendingCert
		s.pendingCert = nil
		r.handleCertify(cert, s)
	}
	// Validate shares stashed by onSupport before this proposal fixed the
	// digest, dropping mismatches; the survivors may already reach the
	// threshold on their own.
	for id, sh := range s.shares {
		if id != cfg.ID && !r.rt.TS.VerifyShare(s.digest[:], sh) {
			delete(s.shares, id)
		}
	}
	r.trySupported(m.Seq, s)
}

func (r *Replica) slot(seq types.SeqNum) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{shares: make(map[types.ReplicaID]crypto.Share), created: time.Now()}
		r.slots[seq] = s
	}
	return s
}

func (r *Replica) onSupport(from types.NodeID, m *Support) {
	if !from.IsReplica() || r.status != statusNormal || m.View != r.view {
		return
	}
	if m.Share.Signer != from.Replica() {
		return
	}
	cfg := r.rt.Cfg
	collector := cfg.Scheme == crypto.SchemeMAC || cfg.Scheme == crypto.SchemeNone || r.isPrimary()
	if !collector {
		return
	}
	lastExec := r.rt.Exec.LastExecuted()
	if m.Seq <= lastExec || m.Seq > lastExec+types.SeqNum(8*cfg.Window) {
		return
	}
	// The slot is created even when the proposal has not arrived yet: the
	// verify pipeline dispatches small SUPPORT messages ahead of large
	// proposals, and supports are sent exactly once — dropping an early one
	// permanently costs a share. With a replica down the collector holds
	// exactly nf live shares, so one dropped share wedges the slot forever
	// (the stall the process-level kill/restart battery exposed).
	r.addSupport(from.Replica(), m, r.slot(m.Seq))
}

func (r *Replica) addSupport(from types.ReplicaID, m *Support, s *slot) {
	if s.committed {
		return
	}
	if _, dup := s.shares[from]; dup {
		return
	}
	// Each share is validated at most once per slot. With the digest fixed,
	// validation happens here, at insertion (the pipeline usually proved it
	// already, making the check a memo hit): an invalid share is rejected
	// before it can occupy the slot, and a Byzantine retry can never force
	// the honest shares through another round of verification — the failure
	// mode that used to make a bad combine O(n²) in signature checks. Before
	// the proposal arrives there is no digest to check against; the share is
	// stashed and handlePropose validates the stash once the digest is
	// fixed. Our own share needs no check.
	if s.haveBatch && from != r.rt.Cfg.ID && !r.rt.TS.VerifyShare(s.digest[:], m.Share) {
		return
	}
	s.shares[from] = m.Share
	r.trySupported(m.Seq, s)
}

// trySupported fires once the slot has the batch, this replica has
// transmitted its own SUPPORT (Fig 3 requires it before view-committing),
// and nf validated shares are collected.
func (r *Replica) trySupported(seq types.SeqNum, s *slot) {
	if s.committed || !s.haveBatch || !s.supported || len(s.shares) < r.rt.Cfg.NF() {
		return
	}
	shares := make([]crypto.Share, 0, len(s.shares))
	for _, sh := range s.shares {
		shares = append(shares, sh)
	}
	// Every collected share is pre-validated, so Combine (re-checking via
	// the share memo) succeeds whenever the threshold count is met.
	cert, err := r.rt.TS.Combine(s.digest[:], shares)
	if err != nil {
		return
	}
	switch r.rt.Cfg.Scheme {
	case crypto.SchemeMAC, crypto.SchemeNone:
		// Every replica reached the certificate locally; commit directly.
		r.commitSlot(seq, s, cert)
	default:
		// TS mode: the primary distributes the certificate.
		if r.byz == nil || !r.byz.SilenceCertify(seq) {
			r.rt.Broadcast(&Certify{View: r.view, Seq: seq, Digest: s.digest, Cert: cert})
		}
		r.commitSlot(seq, s, cert)
	}
}

func (r *Replica) onCertify(from types.NodeID, m *Certify) {
	if !from.IsReplica() || r.status != statusNormal || m.View != r.view {
		return
	}
	if from.Replica() != r.rt.Cfg.Primary(r.view) {
		return
	}
	s := r.slot(m.Seq)
	r.handleCertify(m, s)
}

func (r *Replica) handleCertify(m *Certify, s *slot) {
	if s.committed {
		return
	}
	if !s.haveBatch || !s.supported {
		// The proposal may still be in flight; remember the certificate
		// (Fig 3 requires the replica to have transmitted SUPPORT before
		// view-committing). A valid certificate also proves the decision
		// happened without us — the malicious primary may be keeping this
		// replica in the dark (Example 3(2)) — so start state transfer.
		s.pendingCert = m
		if r.rt.TS.Verify(m.Digest[:], m.Cert) {
			r.fetchFrom(r.rt.Exec.LastExecuted())
		}
		return
	}
	if s.digest != m.Digest || !r.rt.TS.Verify(m.Digest[:], m.Cert) {
		return
	}
	r.commitSlot(m.Seq, s, m.Cert)
}

// commitSlot logs VCommitR (Fig 3, Line 18) and schedules speculative
// execution.
func (r *Replica) commitSlot(seq types.SeqNum, s *slot, cert []byte) {
	if s.committed {
		return
	}
	s.committed = true
	r.lastProgress = time.Now()
	events := r.rt.Exec.Commit(seq, s.view, s.batch, cert)
	r.afterExecution(events)
}

// afterExecution handles executor events: INFORM the clients (Fig 3,
// Line 23), update metrics, trigger checkpoints, clear failure-detection
// state, discard retired slots, and let the primary propose into the freed
// window.
func (r *Replica) afterExecution(events []protocol.Executed) {
	if len(events) == 0 {
		return
	}
	for _, ev := range events {
		r.lastProgress = time.Now()
		r.rt.Metrics.ExecutedBatches.Add(1)
		r.rt.Metrics.ExecutedTxns.Add(int64(ev.Rec.Batch.Size()))
		r.rt.InformBatch(ev.Rec, ev.Results, false, types.ZeroDigest)
		for i := range ev.Rec.Batch.Requests {
			txn := &ev.Rec.Batch.Requests[i].Txn
			if txn.Seq > r.execHigh[txn.Client] {
				r.execHigh[txn.Client] = txn.Seq
			}
			delete(r.pendingReqs, ev.Rec.Batch.Requests[i].Digest())
		}
		delete(r.slots, ev.Rec.Seq)
		r.rt.Pipeline.ForgetDigests(ev.Rec.View, ev.Rec.Seq)
		r.rt.MaybeCheckpoint(ev.Rec.Seq)
	}
	// A partial batch that ripened while the window was full already had
	// its timer wake-up; execution just freed the window, so propose it now.
	now := time.Now()
	r.proposeReady(r.rt.Batcher.Ripe(now))
	if r.status == statusNormal {
		// Execution progress is the under-load lease carrier (renewals ride
		// next to the checkpoint broadcast) and the moment deferred STRONG
		// reads may have caught up.
		r.rt.MaybeGrantLease(r.view, false)
		r.drainStrongReads(now)
	}
}

// --- housekeeping ---

func (r *Replica) onTick() {
	now := time.Now()
	if r.catchup {
		r.catchup = false
		r.fetchFrom(r.rt.Exec.LastExecuted())
	}
	// Snapshot state transfer runs in every status: a replica too far behind
	// for Fetch needs it exactly when it cannot follow the normal case.
	r.rt.Sync.Tick(now)
	switch r.status {
	case statusNormal:
		r.maybeFetch()
		r.drainStrongReads(now)
		suspect := r.suspectPrimary(now)
		// A suspecting replica stops renewing its lease grant, so the
		// primary's outstanding lease drains within one LeaseDuration.
		r.rt.MaybeGrantLease(r.view, suspect)
		if suspect {
			r.startViewChange(r.view + 1)
		}
	case statusViewChange:
		// Keep catching up during the view change: FetchReply commits are
		// processed in any status.
		r.maybeFetch()
		// Un-suspect: if execution progressed past where it was when we
		// suspected the primary and nobody joined our view change, the
		// current view is demonstrably live — we were merely in the dark.
		// Rejoin it instead of stalling in a lonely view change.
		if r.rt.Exec.LastExecuted() > r.vcExecMark && len(r.vcVotes[r.vcTarget]) < r.rt.Cfg.FPlus1() {
			r.resumeNormal(now)
			r.curTimeout = r.rt.Cfg.ViewTimeout
			return
		}
		if now.Sub(r.vcStarted) > r.curTimeout {
			if len(r.vcVotes[r.vcTarget]) < r.rt.Cfg.FPlus1() {
				// Lonely view change timed out: not even f other replicas
				// suspect the primary, so at least one non-faulty replica is
				// content with the current view — our own suspicion was
				// spurious. Escalating would strand this replica dropping
				// every message of a live view (fatal when it is needed for
				// quorum). Return to normal — curTimeout stays doubled, so
				// repeated spurious suspicion decays — and fetch: any slot we
				// were suspicious about may have committed without us while
				// we were view-changing (our share was already spent, so only
				// the executed record can close it now).
				r.resumeNormal(now)
				r.fetchFrom(r.rt.Exec.LastExecuted())
				return
			}
			// The view change itself failed (the next primary is also
			// faulty or unreachable): move one view further with a doubled
			// timeout (exponential backoff, Theorem 7).
			r.startViewChange(r.vcTarget + 1)
		} else if now.Sub(r.vcResent) > r.rt.Cfg.ViewTimeout {
			r.broadcastVC(r.vcTarget)
			r.maybeProposeNewView(r.vcTarget)
		}
	}
}

// resumeNormal abandons a pending view change and rejoins the current view.
// The failure-detection clock restarts from scratch: outstanding work gets a
// fresh full timeout of observation in normal status before it can justify
// suspicion again — without this the still-stale marks re-trigger the view
// change on the very next tick, leaving only a tick-wide window to actually
// process messages.
func (r *Replica) resumeNormal(now time.Time) {
	r.status = statusNormal
	r.lastProgress = now
	for d, p := range r.pendingReqs {
		p.since = now
		r.pendingReqs[d] = p
	}
	for _, s := range r.slots {
		s.created = now
	}
	// A partial batch whose linger expired during the abandoned view change
	// saw its timer wake-up while proposing was off.
	r.proposeReady(r.rt.Batcher.Ripe(now))
}

// suspectPrimary reports whether outstanding work has been stuck beyond the
// current timeout. The item itself must be older than the timeout, not just
// lastProgress: after an idle period lastProgress is arbitrarily stale, and
// work that arrives into that lull (the first proposal after a quiet spell,
// a request forwarded to a freshly elected primary) must get a full timeout
// of grace before it counts as evidence of a faulty primary. Without the
// per-item age check the primary proposes into the lull and the very next
// tick view-changes — before the supports for that proposal can possibly
// have returned — stranding it in a lonely view change.
func (r *Replica) suspectPrimary(now time.Time) bool {
	if now.Sub(r.lastProgress) <= r.curTimeout {
		return false
	}
	for _, p := range r.pendingReqs {
		if now.Sub(p.since) > r.curTimeout {
			return true
		}
	}
	lastExec := r.rt.Exec.LastExecuted()
	for seq, s := range r.slots {
		if seq > lastExec && now.Sub(s.created) > r.curTimeout {
			return true
		}
	}
	if _, _, gapped := r.rt.Exec.Gap(); gapped {
		return true
	}
	return false
}

// maybeFetch requests state transfer when decided batches are stuck behind
// missing predecessors (a replica left in the dark, §II-D).
func (r *Replica) maybeFetch() {
	after, _, gapped := r.rt.Exec.Gap()
	if !gapped {
		return
	}
	r.fetchFrom(after)
}

// fetchFrom asks the next peer (round-robin) for executed records above
// after.
func (r *Replica) fetchFrom(after types.SeqNum) {
	r.rt.FetchFrom(after)
}

func (r *Replica) onFetchReply(m *protocol.FetchReply) {
	for i := range m.Records {
		rec := &m.Records[i]
		if rec.Digest != rec.Batch.Digest() {
			continue
		}
		h := types.ProposalDigest(rec.Seq, rec.View, rec.Digest)
		if !r.rt.TS.Verify(h[:], rec.Proof) {
			continue
		}
		events := r.rt.Exec.Commit(rec.Seq, rec.View, rec.Batch, rec.Proof)
		r.afterExecution(events)
	}
	// Paginated transfer: a server whose head is still ahead has more pages.
	r.rt.FetchContinue(m.Head)
}

// afterInstall resumes the protocol around an installed snapshot: per-slot
// state the snapshot superseded is discarded, sequencing and view jump
// forward, and the ordinary record fetch bridges snapshot → live head.
func (r *Replica) afterInstall(snap *storage.Snapshot, events []protocol.Executed) {
	for seq := range r.slots {
		if seq <= snap.Seq {
			delete(r.slots, seq)
		}
	}
	if r.nextPropose <= snap.Seq {
		r.nextPropose = snap.Seq + 1
	}
	if snap.Head.View > r.view {
		r.view = snap.Head.View
		r.status = statusNormal
	}
	r.lastProgress = time.Now()
	r.curTimeout = r.rt.Cfg.ViewTimeout
	// Requests executed inside the snapshot prefix never pass through
	// afterExecution here, so their pending entries would go stale and feed
	// the failure detector. Drop them all: clients retry anything genuinely
	// outstanding, which re-tracks it with a fresh timer.
	r.pendingReqs = make(map[types.Digest]pendingReq)
	r.afterExecution(events)
	r.fetchFrom(r.rt.Exec.LastExecuted())
}
