package protocol

import (
	"time"

	"github.com/poexec/poe/internal/types"
)

// Batcher is the primary-side batch-creation stage (Fig 6, §III "Batching"):
// it aggregates incoming client requests into batches of a configured size,
// deduplicating retransmissions against both the pending queue and the
// already-proposed history.
//
// A partial batch is released when its oldest request has waited the linger
// interval: the batcher keeps a timer armed for that deadline, and the event
// loop selects on Due and then proposes whatever Ripe allows.
//
// Batcher is used from a single replica event loop and is not safe for
// concurrent use. The loop is also the only receiver on Due.
type Batcher struct {
	max         int
	linger      time.Duration
	zeroPayload bool

	pending  []types.Request
	arrived  []time.Time // arrival time of each pending request
	proposed map[types.ClientID]uint64
	due      *time.Timer // linger deadline of pending[0]; nil until first armed
}

// NewBatcher creates a batcher producing batches of at most max requests.
// If zeroPayload is set, produced batches carry the zero-payload marker so
// replicas execute dummy instructions (§IV-E).
func NewBatcher(max int, linger time.Duration, zeroPayload bool) *Batcher {
	return &Batcher{
		max:         max,
		linger:      linger,
		zeroPayload: zeroPayload,
		proposed:    make(map[types.ClientID]uint64),
	}
}

// Add queues a client request. It returns true if a full batch is now
// available. Duplicate requests (client-local sequence number not newer than
// the last queued or proposed one) are dropped.
func (b *Batcher) Add(req types.Request) bool {
	// Tiered reads falling back to ordering run in their own client-local
	// sequence space: letting them touch the write watermark would either
	// drop the read (seq at or below the watermark) or mask genuine writes
	// (seq above it). They skip the watermark entirely; execution is
	// idempotent, so a retransmitted fallback read merely re-executes.
	if !dedupExempt(&req.Txn) {
		if req.Txn.Seq <= b.proposed[req.Txn.Client] {
			return len(b.pending) >= b.max
		}
		b.proposed[req.Txn.Client] = req.Txn.Seq
	}
	now := time.Now()
	b.pending = append(b.pending, req)
	b.arrived = append(b.arrived, now)
	if len(b.pending) == 1 {
		b.arm(now)
	}
	return len(b.pending) >= b.max
}

// Pending returns the number of queued requests.
func (b *Batcher) Pending() int { return len(b.pending) }

// Ripe reports whether a partial batch has lingered long enough to propose.
func (b *Batcher) Ripe(now time.Time) bool {
	return len(b.pending) > 0 && !now.Before(b.deadline())
}

// Due delivers a value when the oldest pending request's linger deadline
// passes. The event loop selects on it and proposes with force set to Ripe:
// a wake-up can be stale (the batch it was armed for already went out), so
// Ripe, not the wake-up itself, decides. Due is nil, and blocks forever in
// a select, until the first request is queued.
func (b *Batcher) Due() <-chan time.Time {
	if b.due == nil {
		return nil
	}
	return b.due.C
}

// deadline is when the oldest pending request has lingered long enough.
func (b *Batcher) deadline() time.Time { return b.arrived[0].Add(b.linger) }

// arm points the linger timer at the oldest pending request's deadline.
func (b *Batcher) arm(now time.Time) {
	d := b.deadline().Sub(now)
	if b.due == nil {
		b.due = time.NewTimer(d)
		return
	}
	// Timer rules before Go 1.23 (go.mod says 1.21): Reset only a stopped
	// timer, and drain a value it already sent, or the loop wakes early.
	// The loop is the only receiver, so the non-blocking drain never steals
	// a wake-up it still needs.
	if !b.due.Stop() {
		select {
		case <-b.due.C:
		default:
		}
	}
	b.due.Reset(d)
}

// Take removes and returns the next batch. If force is false, a batch is
// returned only when full; if force is true, any non-empty pending set is
// batched. The second return is false when no batch is available.
func (b *Batcher) Take(force bool) (types.Batch, bool) {
	if len(b.pending) == 0 {
		return types.Batch{}, false
	}
	if !force && len(b.pending) < b.max {
		return types.Batch{}, false
	}
	n := b.max
	if n > len(b.pending) {
		n = len(b.pending)
	}
	reqs := make([]types.Request, n)
	copy(reqs, b.pending[:n])
	b.pending = append(b.pending[:0:0], b.pending[n:]...)
	// The leftovers keep their own arrival times: their linger runs from
	// when they arrived, not from when the batch ahead of them left.
	b.arrived = append(b.arrived[:0:0], b.arrived[n:]...)
	if len(b.pending) > 0 {
		b.arm(time.Now())
	} else {
		b.due.Stop()
	}
	batch := types.Batch{Requests: reqs}
	if b.zeroPayload {
		batch.ZeroPayload = true
		batch.ZeroCount = n
	}
	return batch, true
}

// Forget removes a client's dedup entry (used when a view change discards a
// proposal so the request can be re-proposed by the next primary).
func (b *Batcher) Forget(client types.ClientID) {
	delete(b.proposed, client)
}

// ResetProposed clears the proposed-history dedup map. A new primary calls
// this on taking over: its knowledge of what was proposed comes from the
// new-view state, not from its own batching history.
func (b *Batcher) ResetProposed() {
	b.proposed = make(map[types.ClientID]uint64)
}

// PruneProposed drops proposed-history entries that executed reports as
// already covered by the executor's dedup history. Called at stable
// checkpoints: without it the map grows by one entry per client forever. A
// pruned client's retransmission re-enters the pending queue, where the
// executor's deterministic dedup (and the reply cache) still suppress
// re-execution.
func (b *Batcher) PruneProposed(executed func(types.ClientID, uint64) bool) {
	for c, seq := range b.proposed {
		if executed(c, seq) {
			delete(b.proposed, c)
		}
	}
}
