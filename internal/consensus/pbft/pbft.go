// Package pbft implements the Practical Byzantine Fault Tolerance protocol
// (Castro & Liskov, OSDI'99) as the paper's primary baseline (§IV-A): three
// phases — PRE-PREPARE from the primary, then two all-to-all quadratic
// phases PREPARE and COMMIT — with out-of-order processing, batching,
// checkpoints, and a view-change algorithm. Clients wait for f+1 identical
// replies.
//
// To make view-change messages verifiable by third parties, PREPARE and
// COMMIT messages carry threshold-style shares over the proposal digest (the
// same crypto.Share machinery PoE uses): a replica holding nf prepare shares
// has a compact *prepared certificate*, which is what the view-change
// protocol exchanges. Under the MAC scheme the shares are HMACs, so the cost
// profile matches the paper's MAC-based PBFT (BFTSmart-style with
// ResilientDB's pipelining).
package pbft

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// PrePrepare is the primary's ordering proposal.
type PrePrepare struct {
	View  types.View
	Seq   types.SeqNum
	Batch types.Batch
	Auth  [][]byte
}

// SignedPayload returns the bytes covered by the authenticator.
func (m *PrePrepare) SignedPayload() []byte {
	bd := m.Batch.Digest()
	d := types.ProposalDigest(m.Seq, m.View, bd)
	return d[:]
}

// Prepare is the first all-to-all phase: agreement on the proposal digest.
// The share doubles as authentication and as view-change evidence.
type Prepare struct {
	View  types.View
	Seq   types.SeqNum
	Share crypto.Share
}

// Commit is the second all-to-all phase.
type Commit struct {
	View  types.View
	Seq   types.SeqNum
	Share crypto.Share
}

// VCRequest is PBFT's VIEW-CHANGE message: the sender's stable checkpoint
// plus its prepared entries (batch + prepared certificate), whether executed
// or not. Carrying prepared (not merely executed) entries is what makes the
// f+1 client quorum safe across view changes.
type VCRequest struct {
	From      types.ReplicaID
	View      types.View // failed view
	StableSeq types.SeqNum
	Prepared  []PreparedEntry
	Sig       []byte
}

// PreparedEntry is one prepared batch with its certificate.
type PreparedEntry struct {
	Seq    types.SeqNum
	View   types.View
	Digest types.Digest
	Proof  []byte
	Batch  types.Batch
}

// SignedPayload returns the bytes covered by the view-change signature.
func (m *VCRequest) SignedPayload() []byte {
	parts := [][]byte{[]byte("pbft-vc"), u64(uint64(m.From)), u64(uint64(m.View)), u64(uint64(m.StableSeq))}
	for i := range m.Prepared {
		e := &m.Prepared[i]
		parts = append(parts, u64(uint64(e.Seq)), u64(uint64(e.View)), e.Digest[:], e.Proof)
	}
	d := types.DigestConcat(parts...)
	return d[:]
}

// NVPropose is PBFT's NEW-VIEW message.
type NVPropose struct {
	NewView  types.View
	Requests []VCRequest
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return b
}

// commitDigest derives the distinct digest signed in Commit shares, so
// prepare and commit shares cannot be confused.
func commitDigest(h types.Digest) types.Digest {
	return types.DigestConcat([]byte("pbft-commit"), h[:])
}

func init() {
	wire.Register(func() wire.Message { return &PrePrepare{} })
	wire.Register(func() wire.Message { return &Prepare{} })
	wire.Register(func() wire.Message { return &Commit{} })
	wire.Register(func() wire.Message { return &VCRequest{} })
	wire.Register(func() wire.Message { return &NVPropose{} })
}

type status int

const (
	statusNormal status = iota
	statusViewChange
)

// Options configure a PBFT replica.
type Options struct {
	protocol.RuntimeOptions
	// Adversary makes this replica a Byzantine primary per the shared
	// cross-protocol spec: equivocating or suppressed PRE-PREPAREs toward
	// the listed backups, re-signed with this replica's real keys so honest
	// verifiers accept them. Nil means honest.
	Adversary *protocol.AdversarySpec
	Tick      time.Duration
}

// Replica is one PBFT replica.
type Replica struct {
	rt  *protocol.Runtime
	adv *protocol.AdversarySpec

	view        types.View
	status      status
	nextPropose types.SeqNum
	slots       map[types.SeqNum]*slot

	pendingReqs  map[types.Digest]pendingReq
	lastProgress time.Time
	curTimeout   time.Duration

	vcTarget  types.View
	vcStarted time.Time
	vcResent  time.Time
	vcVotes   map[types.View]map[types.ReplicaID]*VCRequest
	sentVC    map[types.View]bool
	lastNV    *NVPropose

	// catchup marks a replica restarted from durable state: the first tick
	// proactively fetches past the recovered prefix.
	catchup bool

	// strongQ holds STRONG reads the primary deferred because its committed
	// head still trailed its proposals; drained after every execution burst
	// and on the tick, with a bounded wait before falling back to ordering.
	strongQ protocol.StrongReads

	tick time.Duration
}

type slot struct {
	view          types.View
	haveBatch     bool
	batch         types.Batch
	digest        types.Digest // h = D(k||v||D(batch))
	prepares      map[types.ReplicaID]crypto.Share
	commits       map[types.ReplicaID]crypto.Share
	preparedCert  []byte // nf prepare shares combined
	committedCert []byte
	committed     bool
}

type pendingReq struct {
	req   types.Request
	since time.Time
}

// New creates a PBFT replica.
func New(cfg protocol.Config, ring *crypto.KeyRing, net network.Transport, opts Options) (*Replica, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := protocol.NewRuntime(cfg, ring, net, opts.RuntimeOptions)
	r := &Replica{
		rt:           rt,
		adv:          opts.Adversary,
		nextPropose:  rt.Exec.LastExecuted() + 1,
		slots:        make(map[types.SeqNum]*slot),
		pendingReqs:  make(map[types.Digest]pendingReq),
		lastProgress: time.Now(),
		curTimeout:   cfg.ViewTimeout,
		vcVotes:      make(map[types.View]map[types.ReplicaID]*VCRequest),
		sentVC:       make(map[types.View]bool),
		tick:         cfg.TickInterval(opts.Tick),
	}
	rt.Sync.AfterInstall = r.afterInstall
	if rt.RecoveredSeq > 0 {
		// Crash-restart: resume after the recovered prefix, rejoin in the
		// last durably executed view (view-change catch-up handles any
		// further drift), and fetch proactively on the first tick.
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

// Runtime exposes the replica runtime for the harness and tests.
func (r *Replica) Runtime() *protocol.Runtime { return r.rt }

// View returns the current view (racy while running; for tests).
func (r *Replica) View() types.View { return r.view }

// Run processes messages until ctx is cancelled. Inbound messages pass
// through the parallel authentication pipeline (verify.go); outbound
// pre-prepares, prepare/commit shares, checkpoint votes, and reply MACs are
// signed on the egress pipeline, whose Local channel loops the deferred
// self-votes back onto the loop. The loop below performs no asymmetric
// crypto of its own in either direction on the normal-case path.
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
	case *PrePrepare:
		if env.From.IsReplica() {
			r.handlePrePrepare(env.From.Replica(), m)
		}
	case *Prepare:
		if env.From.IsReplica() {
			r.onPrepare(env.From.Replica(), m)
		}
	case *Commit:
		if env.From.IsReplica() {
			r.onCommit(env.From.Replica(), m)
		}
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
		if env.From.IsReplica() {
			r.onNVPropose(env.From.Replica(), m)
		}
	}
}

func (r *Replica) isPrimary() bool { return r.rt.Cfg.IsPrimary(r.view) }

// --- client requests ---

func (r *Replica) onClientRequest(from types.NodeID, req *types.Request) {
	if !from.IsClient() || req.Txn.Client != from.Client() {
		return
	}
	// The request signature was checked by the authentication pipeline.
	if r.rt.ReplayReply(req) {
		return
	}
	if r.status != statusNormal {
		r.trackPending(req)
		return
	}
	if r.isPrimary() {
		r.rt.Batcher.Add(*req)
		r.proposeReady(false)
		return
	}
	r.trackPending(req)
	r.rt.SendReplica(r.rt.Cfg.Primary(r.view), &protocol.ForwardRequest{Req: *req})
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

func (r *Replica) trackPending(req *types.Request) {
	d := req.Digest()
	if _, ok := r.pendingReqs[d]; !ok {
		r.pendingReqs[d] = pendingReq{req: *req, since: time.Now()}
	}
}

// --- hybrid-consistency read path ---

// onReadRequest serves a tiered read-only request without ordering when the
// tier's precondition holds, falling back to the ordering pipeline otherwise.
// The verify pipeline already checked the client signature and that the
// transaction is read-only with a non-ordered tier.
func (r *Replica) onReadRequest(req *types.Request) {
	switch req.Txn.Consistency {
	case types.ConsistencySpeculative:
		// Any replica answers from its executed prefix. PBFT executes only
		// committed-local batches and never rolls back, so these serves are
		// final; the (seq, state digest) tag still lets the client audit the
		// prefix against checkpoints.
		r.rt.ServeLocalRead(req, types.ConsistencySpeculative, r.view)
	case types.ConsistencyStrong:
		if r.tryServeStrong(req) {
			return
		}
		if r.isPrimary() && r.status == statusNormal {
			r.strongQ.Defer(req, time.Now())
			return
		}
		r.fallbackRead(req)
	default:
		r.fallbackRead(req)
	}
}

// tryServeStrong answers a STRONG read from the committed prefix iff this
// replica is the primary, holds a quorum read lease, and its committed head
// has caught up with its proposals (every write it acknowledged is in the
// answered prefix). Under a valid lease no view change can assemble a quorum
// — every grantor promised not to join a higher view — so no newer view can
// commit writes the serve would miss; without a lease the read pays for
// ordering, so linearizability never rests on clock synchronization.
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
// dedup-exempt end to end (their own client-local sequence space), so they
// pass the batcher watermark, executor dedup, and reply ring without
// colliding with writes.
func (r *Replica) fallbackRead(req *types.Request) {
	r.rt.Metrics.ReadFallbacks.Add(1)
	if r.isPrimary() && r.status == statusNormal {
		r.rt.Batcher.Add(*req)
		r.proposeReady(false)
		return
	}
	r.rt.SendReplica(r.rt.Cfg.Primary(r.view), &protocol.ForwardRequest{Req: *req})
}

// drainStrongReads retries deferred STRONG reads, falling back to ordering
// for any that waited longer than half a lease duration.
func (r *Replica) drainStrongReads(now time.Time) {
	if r.strongQ.Len() == 0 {
		return
	}
	r.strongQ.Drain(now, r.rt.Cfg.LeaseDuration/2, r.tryServeStrong, r.fallbackRead)
}

// --- normal case ---

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
		seq := r.nextPropose
		r.nextPropose++
		m := &PrePrepare{View: r.view, Seq: seq, Batch: batch}
		r.rt.Metrics.ProposedBatches.Add(1)
		if r.adv == nil {
			payload := m.SignedPayload() // memoizes the batch digest on the loop
			r.rt.Egress.Enqueue(
				func() { m.Auth = r.rt.AuthBroadcast(payload) },
				func() { r.rt.Broadcast(m) },
				nil)
		} else {
			// Byzantine variants sign inline: the attack path is not the
			// hot path.
			m.Auth = r.rt.AuthBroadcast(m.SignedPayload())
			r.broadcastPrePrepare(m)
		}
		r.handlePrePrepare(r.rt.Cfg.ID, m)
	}
}

// broadcastPrePrepare sends an adversarial proposal to every backup:
// targeted backups receive a conflicting (but correctly signed) variant
// batch or nothing at all.
func (r *Replica) broadcastPrePrepare(m *PrePrepare) {
	if r.adv == nil {
		r.rt.Broadcast(m)
		return
	}
	var variant *PrePrepare
	for i := 0; i < r.rt.Cfg.N; i++ {
		id := types.ReplicaID(i)
		if id == r.rt.Cfg.ID {
			continue
		}
		switch r.adv.ActionFor(id) {
		case protocol.ProposeSilence:
		case protocol.ProposeEquivocate:
			if variant == nil {
				v := *m
				v.Batch = protocol.EquivocateBatch(m.Batch)
				v.Auth = r.rt.AuthBroadcast(v.SignedPayload())
				variant = &v
			}
			r.rt.SendReplica(id, variant)
		default:
			r.rt.SendReplica(id, m)
		}
	}
}

func (r *Replica) slot(seq types.SeqNum) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{
			prepares: make(map[types.ReplicaID]crypto.Share),
			commits:  make(map[types.ReplicaID]crypto.Share),
		}
		r.slots[seq] = s
	}
	return s
}

func (r *Replica) handlePrePrepare(from types.ReplicaID, m *PrePrepare) {
	cfg := r.rt.Cfg
	if r.status != statusNormal || m.View != r.view || from != cfg.Primary(r.view) {
		return
	}
	lastExec := r.rt.Exec.LastExecuted()
	if m.Seq <= lastExec || m.Seq > lastExec+types.SeqNum(8*cfg.Window) {
		return
	}
	s := r.slot(m.Seq)
	if s.haveBatch {
		return
	}
	// Broadcast authenticator and client signatures were verified by the
	// authentication pipeline before dispatch.
	s.view = m.View
	s.haveBatch = true
	s.batch = m.Batch
	s.digest = types.ProposalDigest(m.Seq, m.View, m.Batch.Digest())
	// Register both phase payloads so the pipeline verifies prepare and
	// commit shares for this slot off the event loop.
	cd := commitDigest(s.digest)
	r.rt.Pipeline.NoteDigest(kindPrepare, m.View, m.Seq, s.digest[:])
	r.rt.Pipeline.NoteDigest(kindCommit, m.View, m.Seq, cd[:])
	// Broadcast PREPARE and count our own: the share is signed on the
	// egress pool; the self-vote loops back onto the event loop afterwards,
	// re-checking view/status since the slot may have been abandoned.
	p := &Prepare{View: m.View, Seq: m.Seq}
	digest := s.digest
	view := m.View
	r.rt.Egress.Enqueue(
		func() { p.Share = r.rt.TS.Share(digest[:]) },
		func() { r.rt.Broadcast(p) },
		func() {
			if r.status == statusNormal && r.view == view {
				r.addPrepare(cfg.ID, p, s)
			}
		})
}

func (r *Replica) onPrepare(from types.ReplicaID, m *Prepare) {
	if r.status != statusNormal || m.View != r.view || m.Share.Signer != from {
		return
	}
	s := r.slot(m.Seq)
	r.addPrepare(from, m, s)
}

func (r *Replica) addPrepare(from types.ReplicaID, m *Prepare, s *slot) {
	if s.preparedCert != nil {
		return
	}
	if _, dup := s.prepares[from]; dup {
		return
	}
	s.prepares[from] = m.Share
	r.tryPrepared(m.Seq, s)
}

// tryPrepared fires once the slot has the batch and nf prepare shares: the
// replica is "prepared" and broadcasts COMMIT.
func (r *Replica) tryPrepared(seq types.SeqNum, s *slot) {
	if s.preparedCert != nil || !s.haveBatch || len(s.prepares) < r.rt.Cfg.NF() {
		return
	}
	// Shares may have arrived before the pre-prepare fixed the digest;
	// validate them now (in parallel; pipeline-verified shares are memo
	// hits) and drop mismatches.
	shares := crypto.FilterValidShares(r.rt.TS, s.digest[:], s.prepares)
	if len(shares) < r.rt.Cfg.NF() {
		return
	}
	cert, err := r.rt.TS.Combine(s.digest[:], shares)
	if err != nil {
		return
	}
	s.preparedCert = cert
	r.lastProgress = time.Now()
	cd := commitDigest(s.digest)
	c := &Commit{View: s.view, Seq: seq}
	view := s.view
	r.rt.Egress.Enqueue(
		func() { c.Share = r.rt.TS.Share(cd[:]) },
		func() { r.rt.Broadcast(c) },
		func() {
			if r.status == statusNormal && r.view == view {
				r.addCommit(r.rt.Cfg.ID, c, s)
			}
		})
}

func (r *Replica) onCommit(from types.ReplicaID, m *Commit) {
	if r.status != statusNormal || m.View != r.view || m.Share.Signer != from {
		return
	}
	s := r.slot(m.Seq)
	r.addCommit(from, m, s)
}

func (r *Replica) addCommit(from types.ReplicaID, m *Commit, s *slot) {
	if s.committed {
		return
	}
	if _, dup := s.commits[from]; dup {
		return
	}
	s.commits[from] = m.Share
	r.tryCommitted(m.Seq, s)
}

// tryCommitted fires once the replica is prepared and holds nf commit
// shares: the batch is committed-local and scheduled for execution.
func (r *Replica) tryCommitted(seq types.SeqNum, s *slot) {
	if s.committed || s.preparedCert == nil || len(s.commits) < r.rt.Cfg.NF() {
		return
	}
	cd := commitDigest(s.digest)
	shares := crypto.FilterValidShares(r.rt.TS, cd[:], s.commits)
	if len(shares) < r.rt.Cfg.NF() {
		return
	}
	cert, err := r.rt.TS.Combine(cd[:], shares)
	if err != nil {
		return
	}
	s.committedCert = cert
	s.committed = true
	r.lastProgress = time.Now()
	// The execution record stores the prepared certificate: it is what the
	// view-change protocol needs to carry the batch across views.
	events := r.rt.Exec.Commit(seq, s.view, s.batch, s.preparedCert)
	r.afterExecution(events)
}

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
		if now.Sub(r.vcStarted) > r.curTimeout {
			r.startViewChange(r.vcTarget + 1)
		} else if now.Sub(r.vcResent) > r.rt.Cfg.ViewTimeout {
			r.broadcastVC(r.vcTarget)
			r.maybeProposeNewView(r.vcTarget)
		}
	}
}

func (r *Replica) suspectPrimary(now time.Time) bool {
	if now.Sub(r.lastProgress) <= r.curTimeout {
		return false
	}
	if len(r.pendingReqs) > 0 {
		return true
	}
	lastExec := r.rt.Exec.LastExecuted()
	for seq := range r.slots {
		if seq > lastExec {
			return true
		}
	}
	if _, _, gapped := r.rt.Exec.Gap(); gapped {
		return true
	}
	return false
}

func (r *Replica) maybeFetch() {
	after, _, gapped := r.rt.Exec.Gap()
	if !gapped {
		return
	}
	r.fetchFrom(after)
}

// fetchFrom asks the next peer (round-robin) for executed records above after.
func (r *Replica) fetchFrom(after types.SeqNum) {
	r.rt.FetchFrom(after)
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
	r.afterExecution(events)
	r.fetchFrom(r.rt.Exec.LastExecuted())
}

func (r *Replica) onFetchReply(m *protocol.FetchReply) {
	for i := range m.Records {
		rec := &m.Records[i]
		if rec.Digest != rec.Batch.Digest() {
			continue
		}
		if len(rec.Proof) == 0 {
			// Only no-op gap fillers travel without a certificate.
			if len(rec.Batch.Requests) != 0 || rec.Batch.ZeroPayload {
				continue
			}
		} else {
			h := types.ProposalDigest(rec.Seq, rec.View, rec.Digest)
			if !r.rt.TS.Verify(h[:], rec.Proof) {
				continue
			}
		}
		events := r.rt.Exec.Commit(rec.Seq, rec.View, rec.Batch, rec.Proof)
		r.afterExecution(events)
	}
	// Paginated transfer: a server whose head is still ahead has more pages.
	r.rt.FetchContinue(m.Head)
}

// --- view change ---

func (r *Replica) startViewChange(target types.View) {
	if target <= r.view {
		return
	}
	if r.status == statusViewChange && target <= r.vcTarget {
		return
	}
	if !r.rt.Lease.CanAdvanceView(target) {
		// An outstanding read-lease promise forbids joining a higher view
		// until it expires (at most one LeaseDuration). Every initiation path
		// retries — the tick re-suspects, VC-REQUESTs are retransmitted — so
		// the view change is delayed, never lost. Applying a completed
		// NV-PROPOSE is never gated: nf replicas advancing proves the lease
		// quorum already drained.
		return
	}
	r.status = statusViewChange
	r.vcTarget = target
	r.vcStarted = time.Now()
	r.curTimeout *= 2
	r.rt.Metrics.ViewChanges.Add(1)
	if r.sentVC[target] {
		return
	}
	r.sentVC[target] = true
	r.broadcastVC(target)
	r.maybeProposeNewView(target)
}

// broadcastVC signs and broadcasts this replica's view-change request for
// target. Called on entry and then periodically while the view change is
// pending: VIEW-CHANGE messages lost to a partition are not otherwise
// retransmitted, and the new-view primary cannot assemble its quorum
// without them.
func (r *Replica) broadcastVC(target types.View) {
	r.vcResent = time.Now()
	req := r.buildVCRequest(target)
	r.recordVCVote(req)
	r.rt.Broadcast(req)
}

// buildVCRequest collects this replica's prepared entries above its stable
// checkpoint: executed batches (their record keeps the prepared cert) plus
// in-flight slots that reached prepared.
func (r *Replica) buildVCRequest(target types.View) *VCRequest {
	stable := r.rt.Exec.StableCheckpointSeq()
	req := &VCRequest{From: r.rt.Cfg.ID, View: target - 1, StableSeq: stable}
	for _, rec := range r.rt.Exec.ExecutedSince(stable) {
		req.Prepared = append(req.Prepared, PreparedEntry{
			Seq: rec.Seq, View: rec.View, Digest: rec.Digest, Proof: rec.Proof, Batch: rec.Batch,
		})
	}
	lastExec := r.rt.Exec.LastExecuted()
	var extra []types.SeqNum
	for seq, s := range r.slots {
		if seq > lastExec && s.preparedCert != nil {
			extra = append(extra, seq)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	for _, seq := range extra {
		s := r.slots[seq]
		req.Prepared = append(req.Prepared, PreparedEntry{
			Seq: seq, View: s.view, Digest: s.batch.Digest(), Proof: s.preparedCert, Batch: s.batch,
		})
	}
	req.Sig = r.rt.Keys.Sign(req.SignedPayload())
	return req
}

func (r *Replica) recordVCVote(m *VCRequest) {
	target := m.View + 1
	votes, ok := r.vcVotes[target]
	if !ok {
		votes = make(map[types.ReplicaID]*VCRequest)
		r.vcVotes[target] = votes
	}
	if _, dup := votes[m.From]; !dup {
		votes[m.From] = m
	}
}

// validateVCRequest checks signature and per-entry prepared certificates.
// Entries need not be consecutive (a replica can prepare out of order).
func (r *Replica) validateVCRequest(m *VCRequest) bool {
	if m.From < 0 || int(m.From) >= r.rt.Cfg.N {
		return false
	}
	if !r.rt.Keys.VerifyFrom(types.ReplicaNode(m.From), m.SignedPayload(), m.Sig) {
		return false
	}
	var last types.SeqNum
	for i := range m.Prepared {
		e := &m.Prepared[i]
		if e.Seq <= m.StableSeq || e.Seq <= last {
			return false
		}
		last = e.Seq
		if e.Digest != e.Batch.Digest() {
			return false
		}
		if isNullEntry(e) {
			// No-op batches installed by a previous view change carry no
			// certificate; they are acceptable but can never override a
			// proven entry (see applyNVPropose).
			continue
		}
		// The prepared certificate covers h = D(k||v||D(batch)) — the same
		// digest prepare shares sign.
		h := types.ProposalDigest(e.Seq, e.View, e.Digest)
		if !r.rt.TS.Verify(h[:], e.Proof) {
			return false
		}
	}
	return true
}

// isNullEntry reports whether the entry is a no-op gap filler: an empty
// batch with no certificate.
func isNullEntry(e *PreparedEntry) bool {
	return len(e.Proof) == 0 && len(e.Batch.Requests) == 0 && !e.Batch.ZeroPayload
}

func (r *Replica) onVCRequest(m *VCRequest) {
	target := m.View + 1
	if target <= r.view {
		if r.lastNV != nil && r.lastNV.NewView >= target && r.rt.Cfg.IsPrimary(r.lastNV.NewView) {
			r.rt.SendReplica(m.From, r.lastNV)
		}
		return
	}
	if !r.validateVCRequest(m) {
		return
	}
	r.recordVCVote(m)
	if len(r.vcVotes[target]) >= r.rt.Cfg.FPlus1() {
		if r.status == statusNormal || r.vcTarget < target {
			r.startViewChange(target)
		}
	}
	r.joinDivergedViewChange()
	r.maybeProposeNewView(target)
}

// joinDivergedViewChange applies the Castro-Liskov liveness rule: when f+1
// distinct replicas are view-changing to views beyond this replica's own
// target, at least one of them is honest — adopt the smallest such view
// immediately instead of waiting out the (exponentially backed-off) local
// timer. Without it a storm of staggered leader failures can strand the
// replicas on pairwise-different targets, none of which ever gathers a
// quorum.
func (r *Replica) joinDivergedViewChange() {
	cur := r.view
	if r.status == statusViewChange && r.vcTarget > cur {
		cur = r.vcTarget
	}
	voters := make(map[types.ReplicaID]types.View)
	for target, votes := range r.vcVotes {
		if target <= cur {
			continue
		}
		for id := range votes {
			if t, ok := voters[id]; !ok || target < t {
				voters[id] = target
			}
		}
	}
	if len(voters) < r.rt.Cfg.FPlus1() {
		return
	}
	join := types.View(0)
	for _, target := range voters {
		if join == 0 || target < join {
			join = target
		}
	}
	r.startViewChange(join)
	r.maybeProposeNewView(join)
}

func (r *Replica) maybeProposeNewView(target types.View) {
	cfg := r.rt.Cfg
	if !cfg.IsPrimary(target) || r.status != statusViewChange || r.vcTarget != target {
		return
	}
	if r.lastNV != nil && r.lastNV.NewView >= target {
		return
	}
	votes := r.vcVotes[target]
	if len(votes) < cfg.NF() {
		return
	}
	ids := make([]types.ReplicaID, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	nv := &NVPropose{NewView: target}
	for _, id := range ids[:cfg.NF()] {
		nv.Requests = append(nv.Requests, *votes[id])
	}
	r.lastNV = nv
	r.rt.Broadcast(nv)
	r.applyNVPropose(nv)
}

func (r *Replica) onNVPropose(from types.ReplicaID, m *NVPropose) {
	if from != r.rt.Cfg.Primary(m.NewView) {
		return
	}
	if m.NewView < r.view || (m.NewView == r.view && r.status == statusNormal) {
		return
	}
	if !r.validateNVPropose(m) {
		r.startViewChange(m.NewView + 1)
		return
	}
	r.applyNVPropose(m)
}

func (r *Replica) validateNVPropose(m *NVPropose) bool {
	if len(m.Requests) < r.rt.Cfg.NF() {
		return false
	}
	seen := make(map[types.ReplicaID]bool, len(m.Requests))
	for i := range m.Requests {
		req := &m.Requests[i]
		if req.View != m.NewView-1 || seen[req.From] {
			return false
		}
		seen[req.From] = true
		if !r.validateVCRequest(req) {
			return false
		}
	}
	return true
}

// applyNVPropose derives the new view's order: for every sequence number
// between the highest stable checkpoint among the requests and the highest
// prepared sequence number, the entry prepared in the highest view wins;
// gaps are filled with no-op batches (PBFT's null requests).
func (r *Replica) applyNVPropose(m *NVPropose) {
	base := types.SeqNum(0)
	maxSeq := types.SeqNum(0)
	for i := range m.Requests {
		req := &m.Requests[i]
		if req.StableSeq > base {
			base = req.StableSeq
		}
		for j := range req.Prepared {
			if req.Prepared[j].Seq > maxSeq {
				maxSeq = req.Prepared[j].Seq
			}
		}
	}
	chosen := make(map[types.SeqNum]*PreparedEntry)
	for i := range m.Requests {
		req := &m.Requests[i]
		for j := range req.Prepared {
			e := &req.Prepared[j]
			if e.Seq <= base {
				continue
			}
			cur, ok := chosen[e.Seq]
			switch {
			case !ok:
				chosen[e.Seq] = e
			case isNullEntry(cur) && !isNullEntry(e):
				// A proven entry always beats an unproven no-op filler: a
				// byzantine replica must not be able to erase a prepared
				// batch by advertising a fake high-view null.
				chosen[e.Seq] = e
			case isNullEntry(e) != isNullEntry(cur):
				// keep cur (proven beats null)
			case e.View > cur.View:
				chosen[e.Seq] = e
			}
		}
	}

	var events [][]protocol.Executed
	myLast := r.rt.Exec.LastExecuted()
	for seq := base + 1; seq <= maxSeq; seq++ {
		e, ok := chosen[seq]
		if seq <= myLast {
			// PBFT never rolls back: committed-local batches must agree
			// with the new view's choice (quorum intersection guarantees
			// it for genuinely committed entries).
			if ok {
				if rec, have := r.rt.Exec.Record(seq); have && rec.Digest != e.Digest {
					panic(fmt.Sprintf("pbft: new-view conflicts with committed seq %d", seq))
				}
			}
			continue
		}
		if !ok {
			// Gap: fill with a no-op batch so execution stays consecutive.
			evs := r.rt.Exec.Commit(seq, m.NewView, types.Batch{}, nil)
			if len(evs) > 0 {
				events = append(events, evs)
			}
			continue
		}
		evs := r.rt.Exec.Commit(e.Seq, e.View, e.Batch, e.Proof)
		if len(evs) > 0 {
			events = append(events, evs)
		}
	}

	r.enterView(m.NewView, maxSeq)
	for _, evs := range events {
		r.afterExecution(evs)
	}
}

func (r *Replica) enterView(v types.View, kmax types.SeqNum) {
	r.view = v
	r.status = statusNormal
	r.curTimeout = r.rt.Cfg.ViewTimeout
	r.lastProgress = time.Now()
	r.rt.Metrics.ViewChangesDone.Add(1)
	// Grants from the old view must never validate a lease in the new one,
	// and reads the old primary parked can no longer be lease-served.
	r.rt.Lease.ResetHolder(v)
	r.strongQ.FlushAll(r.fallbackRead)
	r.slots = make(map[types.SeqNum]*slot)
	// Every share payload in the pipeline's digest table belongs to the old
	// view's slots; drop them with the slots.
	r.rt.Pipeline.Reset()
	for target := range r.vcVotes {
		if target <= v {
			delete(r.vcVotes, target)
		}
	}
	for target := range r.sentVC {
		if target <= v {
			delete(r.sentVC, target)
		}
	}
	if r.rt.Cfg.IsPrimary(v) {
		if kmax < r.rt.Exec.LastExecuted() {
			kmax = r.rt.Exec.LastExecuted()
		}
		r.nextPropose = kmax + 1
		r.rt.Batcher.ResetProposed()
		for _, p := range r.pendingReqs {
			r.rt.Batcher.Add(p.req)
		}
		r.proposeReady(true)
	} else {
		for _, p := range r.pendingReqs {
			r.rt.SendReplica(r.rt.Cfg.Primary(v), &protocol.ForwardRequest{Req: p.req})
		}
	}
}
