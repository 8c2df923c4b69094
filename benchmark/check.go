package main

import (
	"fmt"
	"sync"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/types"
)

// maxAuditSamples bounds the speculative answers kept for the audit.
const maxAuditSamples = 8192

// readAudit keeps the (ExecSeq, StateDigest) tag of the most recent
// unrepaired SPECULATIVE answers, keyed by (client, read seq) so a later
// repair retracts the original answer: a repaired serve observed state the
// cluster abandoned. The newest answers are kept because replicas prune the
// digests of old sequence numbers.
type readAudit struct {
	mu      sync.Mutex
	samples map[readKey]readTag
	order   []readKey // insertion order, oldest first
}

type readKey struct {
	client types.ClientID
	seq    uint64
}

type readTag struct {
	execSeq types.SeqNum
	state   types.Digest
}

func newReadAudit() *readAudit { return &readAudit{samples: make(map[readKey]readTag)} }

func (a *readAudit) observe(txn types.Transaction, ans client.ReadAnswer) {
	// Strong serves rest on the lease argument, fallbacks on the Inform
	// quorum, and ExecSeq 0 names only the preloaded table.
	if ans.Fallback || ans.Tier != types.ConsistencySpeculative || ans.Repaired || ans.ExecSeq == 0 {
		return
	}
	key := readKey{txn.Client, txn.Seq}
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.order) >= maxAuditSamples {
		delete(a.samples, a.order[0])
		a.order = a.order[1:]
	}
	a.samples[key] = readTag{ans.ExecSeq, ans.StateDigest}
	a.order = append(a.order, key)
}

func (a *readAudit) onRepair(ans client.ReadAnswer) {
	a.mu.Lock()
	delete(a.samples, readKey{ans.Result.Client, ans.Result.Seq})
	a.mu.Unlock()
}

// gateReport is the outcome of the correctness gate.
type gateReport struct {
	digestSeq    types.SeqNum
	liveReplicas int
	auditChecked int
	auditSkipped int
	ledgersOK    int
	problems     []string
}

func (g gateReport) ok() bool { return len(g.problems) == 0 }

func (g gateReport) String() string {
	s := fmt.Sprintf("state digests agree at seq %d over %d live replicas; speculative audit %d checked, %d pruned; %d ledgers verify",
		g.digestSeq, g.liveReplicas, g.auditChecked, g.auditSkipped, g.ledgersOK)
	for _, p := range g.problems {
		s += "\n  VIOLATION: " + p
	}
	return s
}

// digestSearch is how far below the lowest executed sequence number the gate
// looks for one whose digests every live replica still retains.
const digestSearch = 256

// checkCluster runs the correctness gate on a stopped cluster:
//   - live replicas agree on the state digest at their common executed
//     sequence number;
//   - every sampled unrepaired SPECULATIVE answer quotes a state digest some
//     replica recorded at that sequence number;
//   - every replica's ledger hash chain verifies.
func checkCluster(c *cluster) gateReport {
	var g gateReport
	live := c.live()
	g.liveReplicas = len(live)
	g.digestSeq, g.problems = agreeDigests(live)

	c.audit.mu.Lock()
	for key, tag := range c.audit.samples {
		retained, matched := false, false
		for _, r := range c.replicas {
			state, _, ok := r.Runtime().Exec.DigestsAt(tag.execSeq)
			if !ok {
				continue
			}
			retained = true
			if state == tag.state {
				matched = true
				break
			}
		}
		switch {
		case matched:
			g.auditChecked++
		case retained:
			g.auditChecked++
			g.problems = append(g.problems, fmt.Sprintf("speculative read c%d/%d quoted a state digest at seq %d that no replica recorded", key.client, key.seq, tag.execSeq))
		default:
			g.auditSkipped++
		}
	}
	c.audit.mu.Unlock()

	for i, r := range c.replicas {
		if at, ok := r.Runtime().Exec.Chain().Verify(); !ok {
			g.problems = append(g.problems, fmt.Sprintf("replica %d ledger broken at seq %d", i, at))
			continue
		}
		g.ledgersOK++
	}
	return g
}

// agreeDigests finds the highest sequence number that every live replica
// executed and still retains, and reports any replica whose state digest
// there differs from the first one's.
func agreeDigests(live []*poe.Replica) (types.SeqNum, []string) {
	if len(live) == 0 {
		return 0, []string{"no live replica"}
	}
	low := live[0].Runtime().Exec.LastExecuted()
	for _, r := range live[1:] {
		if s := r.Runtime().Exec.LastExecuted(); s < low {
			low = s
		}
	}
	for seq := low; seq > 0 && low-seq < digestSearch; seq-- {
		states := make([]types.Digest, 0, len(live))
		for _, r := range live {
			state, _, ok := r.Runtime().Exec.DigestsAt(seq)
			if !ok {
				break
			}
			states = append(states, state)
		}
		if len(states) < len(live) {
			continue
		}
		var problems []string
		for i, s := range states[1:] {
			if s != states[0] {
				problems = append(problems, fmt.Sprintf("live replica #%d state digest at seq %d differs from live replica #0", i+1, seq))
			}
		}
		return seq, problems
	}
	return 0, []string{fmt.Sprintf("no sequence number at or below %d retained by every live replica", low)}
}
