// Package zyzzyva implements Zyzzyva (Kotla et al., SOSP'07), the paper's
// speculative twin-path baseline (§IV-A): in the fast path the primary
// orders a request with a single ORDER-REQ message, replicas execute it
// immediately — before any agreement — and reply to the client, which
// completes only when all n replies match. Even one crashed replica breaks
// the fast path: the client times out, assembles a commit certificate from
// nf = n − f matching speculative responses, and runs the slow path
// (COMMIT / LOCAL-COMMIT) for every request, which is what collapses
// Zyzzyva's throughput in the paper's single-failure experiments.
//
// The view change follows the same longest-history scheme as PoE but, true
// to the original protocol (and to the paper's Fig 1 "unsafe" annotation and
// [10]), speculative histories carry no certificates, so a faulty replica
// can lie about its history during a view change. We reproduce the protocol
// as evaluated, not a corrected variant.
package zyzzyva

import (
	"context"
	"sort"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/ledger"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// ledgerBlock aliases ledger.Block; Zyzzyva's history digests are ledger
// block hashes.
type ledgerBlock = ledger.Block

func blockHash(b ledger.Block) types.Digest { return b.Hash() }

// OrderReq is the primary's ordering message: sequence number, batch, and
// the expected speculative history digest after executing it.
type OrderReq struct {
	View    types.View
	Seq     types.SeqNum
	History types.Digest // h_k = D(h_{k-1} || d_k)
	Batch   types.Batch
	Auth    [][]byte
}

// SignedPayload returns the bytes covered by the authenticator.
func (m *OrderReq) SignedPayload() []byte {
	bd := m.Batch.Digest()
	d := types.DigestConcat([]byte("zyz-order"), u64(uint64(m.View)), u64(uint64(m.Seq)), bd[:], m.History[:])
	return d[:]
}

// specPayload is the payload replicas sign in speculative-response shares;
// nf of them form the client's commit certificate. The history digest is a
// ledger block hash, which already binds the batch digest and the whole
// prefix before it.
func specPayload(seq types.SeqNum, history types.Digest) []byte {
	d := types.DigestConcat([]byte("zyz-spec"), u64(uint64(seq)), history[:])
	return d[:]
}

// CommitReq is the client's slow-path message: a commit certificate of nf
// speculative-response shares proving that nf replicas speculatively
// executed the same history prefix.
type CommitReq struct {
	Client    types.ClientID
	ClientSeq uint64
	Seq       types.SeqNum
	History   types.Digest
	Shares    []crypto.Share
}

// LocalCommit is a replica's acknowledgement of a commit certificate.
type LocalCommit struct {
	From      types.ReplicaID
	ClientSeq uint64
	Seq       types.SeqNum
	Tag       []byte
}

// VCRequest mirrors PoE's view-change request but its execution summary is
// uncertified (speculative execution produces no certificates).
type VCRequest struct {
	From      types.ReplicaID
	View      types.View
	StableSeq types.SeqNum
	Executed  []types.ExecRecord
	Sig       []byte
}

// SignedPayload returns the bytes covered by the view-change signature.
func (m *VCRequest) SignedPayload() []byte {
	parts := [][]byte{[]byte("zyz-vc"), u64(uint64(m.From)), u64(uint64(m.View)), u64(uint64(m.StableSeq))}
	for i := range m.Executed {
		e := &m.Executed[i]
		parts = append(parts, u64(uint64(e.Seq)), e.Digest[:])
	}
	d := types.DigestConcat(parts...)
	return d[:]
}

// NVPropose is the new primary's new-view message.
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

func init() {
	wire.Register(func() wire.Message { return &OrderReq{} })
	wire.Register(func() wire.Message { return &CommitReq{} })
	wire.Register(func() wire.Message { return &LocalCommit{} })
	wire.Register(func() wire.Message { return &VCRequest{} })
	wire.Register(func() wire.Message { return &NVPropose{} })
}

type status int

const (
	statusNormal status = iota
	statusViewChange
)

// Options configure a Zyzzyva replica.
type Options struct {
	protocol.RuntimeOptions
	// Adversary makes this replica a Byzantine primary per the shared
	// cross-protocol spec: targeted backups receive a conflicting ORDER-REQ
	// variant whose history digest is re-derived for the variant batch —
	// so victims speculatively execute it and genuinely diverge, the attack
	// the rollback machinery of §III exists for — or no ORDER-REQ at all.
	// Nil means honest.
	Adversary *protocol.AdversarySpec
	Tick      time.Duration
}

// Replica is one Zyzzyva replica.
type Replica struct {
	rt  *protocol.Runtime
	adv *protocol.AdversarySpec

	view        types.View
	status      status
	nextPropose types.SeqNum
	orders      map[types.SeqNum]*OrderReq

	// primaryHistories caches the primary's predicted history digests for
	// in-flight (proposed but not yet executed) sequence numbers. The
	// history digest of sequence number k is the ledger block hash at k, so
	// histories are identical on all non-faulty replicas by construction
	// and survive view changes and checkpoints.
	primaryHistories map[types.SeqNum]types.Digest

	committedStable types.SeqNum // highest seq covered by a commit certificate

	pendingReqs  map[types.Digest]pendingReq
	lastProgress time.Time
	curTimeout   time.Duration

	vcTarget  types.View
	vcStarted time.Time
	vcResent  time.Time
	vcVotes   map[types.View]map[types.ReplicaID]*VCRequest
	sentVC    map[types.View]bool
	lastNV    *NVPropose

	tick time.Duration
}

type pendingReq struct {
	req   types.Request
	since time.Time
}

// New creates a Zyzzyva replica.
func New(cfg protocol.Config, ring *crypto.KeyRing, net network.Transport, opts Options) (*Replica, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := protocol.NewRuntime(cfg, ring, net, opts.RuntimeOptions)
	r := &Replica{
		rt:               rt,
		adv:              opts.Adversary,
		nextPropose:      rt.Exec.LastExecuted() + 1,
		orders:           make(map[types.SeqNum]*OrderReq),
		primaryHistories: make(map[types.SeqNum]types.Digest),
		pendingReqs:      make(map[types.Digest]pendingReq),
		lastProgress:     time.Now(),
		curTimeout:       cfg.ViewTimeout,
		vcVotes:          make(map[types.View]map[types.ReplicaID]*VCRequest),
		sentVC:           make(map[types.View]bool),
		tick:             cfg.TickInterval(opts.Tick),
	}
	rt.Sync.AfterInstall = r.afterInstall
	if rt.RecoveredSeq > 0 {
		// Crash-restart: resume sequencing after the durably recovered
		// prefix and rejoin in the view it was executed in. Zyzzyva's
		// catch-up is its view change — the NV-PROPOSE carries the
		// executed records a restarted replica is missing — so no
		// proactive fetch is issued here; buffered order requests above
		// the gap trigger the suspicion timer that gets us there.
		r.view = rt.Exec.Chain().Head().View
		r.committedStable = rt.Exec.StableCheckpointSeq()
	}
	return r, nil
}

// Runtime exposes the replica runtime.
func (r *Replica) Runtime() *protocol.Runtime { return r.rt }

// View returns the current view (racy while running; for tests).
func (r *Replica) View() types.View { return r.view }

// Run processes messages until ctx is cancelled. Inbound messages pass
// through the parallel authentication pipeline (verify.go); outbound
// order requests, speculative-response shares, checkpoint votes, and reply
// MACs are signed on the egress pipeline, whose Local channel loops deferred
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
		// Zyzzyva does not implement the fast read path
		// (protocol.ErrReadPathUnsupported): tiered reads are ordered like
		// any other request. They are dedup-exempt end to end, so their
		// separate client-local sequence space cannot collide with writes.
		r.fallbackRead(&m.Req)
	case *protocol.LeaseGrant:
		// No lease machinery without the fast read path; grants are inert.
	case *OrderReq:
		if env.From.IsReplica() {
			r.handleOrderReq(env.From.Replica(), m)
		}
	case *CommitReq:
		if env.From.IsClient() {
			r.onCommitReq(m)
		}
	case *protocol.Checkpoint:
		r.rt.OnCheckpoint(m)
	case *protocol.Fetch:
		r.rt.HandleFetch(m)
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

// fallbackRead routes a tiered read through the ordering pipeline: the
// primary batches it; a backup forwards it.
func (r *Replica) fallbackRead(req *types.Request) {
	r.rt.Metrics.ReadFallbacks.Add(1)
	if r.isPrimary() && r.status == statusNormal {
		r.rt.Batcher.Add(*req)
		r.proposeReady(false)
		return
	}
	r.rt.SendReplica(r.rt.Cfg.Primary(r.view), &protocol.ForwardRequest{Req: *req})
}

func (r *Replica) trackPending(req *types.Request) {
	d := req.Digest()
	if _, ok := r.pendingReqs[d]; !ok {
		r.pendingReqs[d] = pendingReq{req: *req, since: time.Now()}
	}
}

// --- normal case (fast path) ---

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
		// The history digest for seq is the ledger block hash the batch
		// will produce; the primary predicts it for in-flight proposals.
		bd := batch.Digest()
		prev := r.prevHistory(seq)
		hist := blockHash(ledgerBlock{Seq: seq, Digest: bd, View: r.view, PrevHash: prev})
		r.primaryHistories[seq] = hist
		m := &OrderReq{View: r.view, Seq: seq, History: hist, Batch: batch}
		r.rt.Metrics.ProposedBatches.Add(1)
		if r.adv == nil {
			payload := m.SignedPayload() // memoizes the batch digest on the loop
			r.rt.Egress.Enqueue(
				func() { m.Auth = r.rt.AuthBroadcast(payload) },
				func() { r.rt.Broadcast(m) },
				nil)
		} else {
			// Byzantine variants sign inline: not the hot path.
			m.Auth = r.rt.AuthBroadcast(m.SignedPayload())
			r.broadcastOrderReq(m, prev)
		}
		r.handleOrderReq(r.rt.Cfg.ID, m)
	}
}

// broadcastOrderReq sends the ordering message to every backup, applying the
// Byzantine adversary spec if one is installed. An equivocation variant
// carries a different (validly signed) batch and the matching re-derived
// history digest, so its receivers speculatively execute it — Zyzzyva's
// replicas diverge until the view change rolls the losers back.
func (r *Replica) broadcastOrderReq(m *OrderReq, prev types.Digest) {
	if r.adv == nil {
		r.rt.Broadcast(m)
		return
	}
	var variant *OrderReq
	for i := 0; i < r.rt.Cfg.N; i++ {
		id := types.ReplicaID(i)
		if id == r.rt.Cfg.ID {
			continue
		}
		switch r.adv.ActionFor(id) {
		case protocol.ProposeSilence:
		case protocol.ProposeEquivocate:
			if variant == nil {
				vb := protocol.EquivocateBatch(m.Batch)
				v := *m
				v.Batch = vb
				v.History = blockHash(ledgerBlock{Seq: m.Seq, Digest: vb.Digest(), View: m.View, PrevHash: prev})
				v.Auth = r.rt.AuthBroadcast(v.SignedPayload())
				variant = &v
			}
			r.rt.SendReplica(id, variant)
		default:
			r.rt.SendReplica(id, m)
		}
	}
}

// prevHistory returns the history digest a proposal at seq chains from:
// either a cached in-flight prediction or the executed ledger.
func (r *Replica) prevHistory(seq types.SeqNum) types.Digest {
	if h, ok := r.primaryHistories[seq-1]; ok {
		return h
	}
	if b, ok := r.rt.Exec.Chain().Get(seq - 1); ok {
		return blockHash(b)
	}
	return blockHash(r.rt.Exec.Chain().Head())
}

func (r *Replica) handleOrderReq(from types.ReplicaID, m *OrderReq) {
	cfg := r.rt.Cfg
	if r.status != statusNormal || m.View != r.view || from != cfg.Primary(r.view) {
		return
	}
	lastExec := r.rt.Exec.LastExecuted()
	if m.Seq <= lastExec || m.Seq > lastExec+types.SeqNum(8*cfg.Window) {
		return
	}
	if _, dup := r.orders[m.Seq]; dup {
		return
	}
	// Authenticator and client signatures were verified by the
	// authentication pipeline before dispatch.
	r.orders[m.Seq] = m
	r.drainOrders()
}

// drainOrders speculatively executes buffered order requests in sequence
// order, verifying the history chain as it goes.
func (r *Replica) drainOrders() {
	for {
		next := r.rt.Exec.LastExecuted() + 1
		m, ok := r.orders[next]
		if !ok {
			return
		}
		delete(r.orders, next)
		head := r.rt.Exec.Chain().Head()
		want := blockHash(ledgerBlock{Seq: m.Seq, Digest: m.Batch.Digest(), View: m.View, PrevHash: blockHash(head)})
		if want != m.History {
			// The primary mis-chained the history: treat as failure.
			r.startViewChange(r.view + 1)
			return
		}
		r.lastProgress = time.Now()
		events := r.rt.Exec.Commit(m.Seq, m.View, m.Batch, nil)
		r.afterExecution(events)
		// A partial batch that ripened while the window was full already
		// had its timer wake-up; execution just freed the window, so
		// propose it now.
		r.proposeReady(r.rt.Batcher.Ripe(time.Now()))
	}
}

// afterExecution performs the per-event bookkeeping shared by the normal
// case, fetched records, and snapshot installs.
func (r *Replica) afterExecution(events []protocol.Executed) {
	for _, ev := range events {
		r.rt.Metrics.ExecutedBatches.Add(1)
		r.rt.Metrics.ExecutedTxns.Add(int64(ev.Rec.Batch.Size()))
		r.informSpeculative(ev)
		for i := range ev.Rec.Batch.Requests {
			delete(r.pendingReqs, ev.Rec.Batch.Requests[i].Digest())
		}
		delete(r.primaryHistories, ev.Rec.Seq)
		r.rt.MaybeCheckpoint(ev.Rec.Seq)
	}
}

// afterInstall resumes the protocol around an installed snapshot: buffered
// order requests the snapshot superseded are discarded, and sequencing and
// view jump forward. The history digest needs no explicit repair — it is
// derived from the ledger head, which InstallSnapshot re-rooted at the
// certified block. No record fetch bridges snapshot → live head: fetched
// records are uncertified speculative history, and adopting a suffix a peer
// later rolls back would leave this replica divergent if it misses that
// view change. Zyzzyva's own catch-up is the view change — the NV-PROPOSE
// carries the executed records a lagging replica is missing — which the
// order-gap suspicion timer reaches on its own.
func (r *Replica) afterInstall(snap *storage.Snapshot, events []protocol.Executed) {
	for seq := range r.orders {
		if seq <= snap.Seq {
			delete(r.orders, seq)
		}
	}
	for seq := range r.primaryHistories {
		if seq <= snap.Seq {
			delete(r.primaryHistories, seq)
		}
	}
	if r.nextPropose <= snap.Seq {
		r.nextPropose = snap.Seq + 1
	}
	if r.committedStable < snap.Seq {
		r.committedStable = snap.Seq
	}
	if snap.Head.View > r.view {
		r.view = snap.Head.View
		r.status = statusNormal
	}
	r.lastProgress = time.Now()
	r.curTimeout = r.rt.Cfg.ViewTimeout
	r.afterExecution(events)
	r.drainOrders()
}

// history returns the current speculative history digest: the ledger head's
// block hash.
func (r *Replica) historyDigest() types.Digest {
	head := r.rt.Exec.Chain().Head()
	return blockHash(head)
}

// informSpeculative stages speculative responses carrying the history digest
// and this replica's share over the ordering (the client's commit
// certificate material). The history digest is fixed on the event loop; the
// threshold share — one Ed25519 sign per batch — and the per-reply MACs are
// computed on the egress pool, and on a durable replica the sends wait for
// the batch's WAL group.
func (r *Replica) informSpeculative(ev protocol.Executed) {
	hist := r.historyDigest()
	payload := specPayload(ev.Rec.Seq, hist)
	byKey := make(map[types.ClientID]map[uint64]types.Result, len(ev.Results))
	for _, res := range ev.Results {
		inner, ok := byKey[res.Client]
		if !ok {
			inner = make(map[uint64]types.Result)
			byKey[res.Client] = inner
		}
		inner[res.Seq] = res
	}
	replies := make([]protocol.Reply, 0, len(ev.Rec.Batch.Requests))
	for i := range ev.Rec.Batch.Requests {
		req := &ev.Rec.Batch.Requests[i]
		res, ok := byKey[req.Txn.Client][req.Txn.Seq]
		if !ok {
			r.rt.ReplayReply(req)
			continue
		}
		replies = append(replies, protocol.Reply{Client: req.Txn.Client, Msg: &protocol.Inform{
			From:        r.rt.Cfg.ID,
			Digest:      req.Digest(),
			View:        ev.Rec.View,
			Seq:         ev.Rec.Seq,
			ClientSeq:   req.Txn.Seq,
			Values:      res.Values,
			Speculative: true,
			OrderProof:  hist,
		}})
	}
	r.rt.SendReplies(ev.Rec.Seq, replies, false, func() {
		share := r.rt.TS.Share(payload)
		for _, rp := range replies {
			rp.Msg.Share = share
		}
	})
}

// --- slow path ---

func (r *Replica) onCommitReq(m *CommitReq) {
	// Verify nf distinct valid shares over the claimed ordering.
	payload := specPayload(m.Seq, m.History)
	seen := make(map[types.ReplicaID]bool, len(m.Shares))
	valid := 0
	for _, sh := range m.Shares {
		if seen[sh.Signer] || !r.rt.TS.VerifyShare(payload, sh) {
			continue
		}
		seen[sh.Signer] = true
		valid++
	}
	if valid < r.rt.Cfg.NF() {
		return
	}
	if m.Seq > r.committedStable {
		r.committedStable = m.Seq
	}
	lc := &LocalCommit{From: r.rt.Cfg.ID, ClientSeq: m.ClientSeq, Seq: m.Seq}
	d := types.DigestConcat([]byte("zyz-lc"), u64(uint64(m.ClientSeq)), u64(uint64(m.Seq)))
	lc.Tag = r.rt.Keys.MAC(types.ClientNode(m.Client), d[:])
	r.rt.Net.Send(types.ClientNode(m.Client), lc)
}

// --- housekeeping & view change ---

func (r *Replica) onTick() {
	now := time.Now()
	// Snapshot state transfer runs in every status: a replica too far behind
	// to receive in-window ORDER-REQs needs it exactly when the normal case
	// (and Zyzzyva's view-change catch-up) cannot reach it.
	r.rt.Sync.Tick(now)
	switch r.status {
	case statusNormal:
		if r.suspect(now) {
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

func (r *Replica) suspect(now time.Time) bool {
	if now.Sub(r.lastProgress) <= r.curTimeout {
		return false
	}
	return len(r.pendingReqs) > 0 || len(r.orders) > 0
}

func (r *Replica) startViewChange(target types.View) {
	if target <= r.view {
		return
	}
	if r.status == statusViewChange && target <= r.vcTarget {
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
	stable := r.rt.Exec.StableCheckpointSeq()
	req := &VCRequest{
		From:      r.rt.Cfg.ID,
		View:      target - 1,
		StableSeq: stable,
		Executed:  r.rt.Exec.ExecutedSince(stable),
	}
	req.Sig = r.rt.Keys.Sign(req.SignedPayload())
	r.recordVCVote(req)
	r.rt.Broadcast(req)
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

func (r *Replica) validateVCRequest(m *VCRequest) bool {
	if m.From < 0 || int(m.From) >= r.rt.Cfg.N {
		return false
	}
	if !r.rt.Keys.VerifyFrom(types.ReplicaNode(m.From), m.SignedPayload(), m.Sig) {
		return false
	}
	next := m.StableSeq + 1
	for i := range m.Executed {
		e := &m.Executed[i]
		if e.Seq != next || e.Digest != e.Batch.Digest() {
			return false
		}
		next++
		// NOTE: no certificate to verify — Zyzzyva's speculative histories
		// are uncertified, the root of its known unsafety [10].
	}
	return true
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
	if len(m.Requests) < r.rt.Cfg.NF() {
		r.startViewChange(m.NewView + 1)
		return
	}
	for i := range m.Requests {
		if m.Requests[i].View != m.NewView-1 || !r.validateVCRequest(&m.Requests[i]) {
			r.startViewChange(m.NewView + 1)
			return
		}
	}
	r.applyNVPropose(m)
}

func (r *Replica) applyNVPropose(m *NVPropose) {
	best := &m.Requests[0]
	bestEnd := best.StableSeq + types.SeqNum(len(best.Executed))
	for i := 1; i < len(m.Requests); i++ {
		req := &m.Requests[i]
		end := req.StableSeq + types.SeqNum(len(req.Executed))
		if end > bestEnd || (end == bestEnd && req.From < best.From) {
			best, bestEnd = req, end
		}
	}
	kmax := bestEnd

	myLast := r.rt.Exec.LastExecuted()
	rollbackTo := myLast
	if kmax < rollbackTo {
		rollbackTo = kmax
	}
	for i := range best.Executed {
		e := &best.Executed[i]
		if e.Seq > rollbackTo {
			break
		}
		if rec, ok := r.rt.Exec.Record(e.Seq); ok && rec.Digest != e.Digest {
			rollbackTo = e.Seq - 1
			break
		}
	}
	if rollbackTo < myLast {
		if err := r.rt.Exec.Rollback(rollbackTo); err == nil {
			r.rt.Metrics.Rollbacks.Add(1)
		}
	}
	var events [][]protocol.Executed
	for i := range best.Executed {
		e := &best.Executed[i]
		if e.Seq <= r.rt.Exec.LastExecuted() {
			continue
		}
		evs := r.rt.Exec.Commit(e.Seq, e.View, e.Batch, nil)
		if len(evs) > 0 {
			events = append(events, evs)
		}
	}
	r.enterView(m.NewView, kmax)
	for _, evs := range events {
		for _, ev := range evs {
			r.rt.Metrics.ExecutedBatches.Add(1)
			r.rt.Metrics.ExecutedTxns.Add(int64(ev.Rec.Batch.Size()))
			r.informSpeculative(ev)
		}
	}
}

func (r *Replica) enterView(v types.View, kmax types.SeqNum) {
	r.view = v
	r.status = statusNormal
	r.curTimeout = r.rt.Cfg.ViewTimeout
	r.lastProgress = time.Now()
	r.rt.Metrics.ViewChangesDone.Add(1)
	r.orders = make(map[types.SeqNum]*OrderReq)
	r.primaryHistories = make(map[types.SeqNum]types.Digest)
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
		r.nextPropose = kmax + 1
		if r.rt.Exec.LastExecuted() >= r.nextPropose {
			r.nextPropose = r.rt.Exec.LastExecuted() + 1
		}
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
