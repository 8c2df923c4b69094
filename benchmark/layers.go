package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/store"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/wire"
)

// metric is one named measurement. n is its sample count where it is a
// statistic over samples, 0 otherwise.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// Offline timing sizes: codec passes over the message sample, and WAL
// records appended per timing.
const (
	codecPasses = 4
	walRecords  = 200
)

// completionsIn counts requests, measured or not, whose reply was accepted
// inside [from, to].
func completionsIn(res *loadResult, from, to time.Time) int {
	var n int
	for _, o := range res.outcomes {
		if o.completed() && !o.done.Before(from) && !o.done.After(to) {
			n++
		}
	}
	return n
}

// replicaDelta sums a counter's growth over the window across the replicas
// for which keep is true.
func replicaDelta(res *loadResult, keep func(i int) bool, get func(protocol.MetricsSnapshot) int64) int64 {
	var sum int64
	for i := range res.after {
		if keep(i) && i < len(res.before) {
			sum += get(res.after[i]) - get(res.before[i])
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes the per-layer metrics of a traced run. It also
// returns any correctness problem the offline timings ran into (a request
// signature that does not verify, a message that does not decode).
func layerMetrics(c *cluster, spec workloadSpec, res *loadResult, tr *tracer, stages []stageStats, dataDir string, overhead float64) ([]metric, []string) {
	var out []metric
	var problems []string
	add := func(name, unit string, v float64, n int) { out = append(out, metric{name, unit, v, n}) }
	window := res.window().Seconds()
	done := float64(completionsIn(res, res.measureStart, res.end))
	live := func(i int) bool { return !c.crashed[i] }
	nLive := float64(len(c.live()))

	stage := map[string]stageStats{}
	for _, s := range stages {
		stage[s.name] = s
	}
	for _, s := range []struct{ metric, span string }{
		{"stage.ingress_ms", spanIngress},
		{"stage.batch_ms", spanBatch},
		{"stage.order_ms", spanOrder},
		{"stage.reply_ms", spanReply},
		{"stage.read_serve_ms", spanReadServe},
	} {
		add(s.metric, "ms", stage[s.span].p50Ms, stage[s.span].count)
	}

	execTxns := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.ExecutedTxns })
	execBatches := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.ExecutedBatches })
	add("batch.txns", "count", ratio(float64(execTxns), float64(execBatches)), int(execBatches))

	traces := tr.byKey()
	var reached, dropped, attempted, repeats int
	for _, o := range res.outcomes {
		if !o.measured || o.shed {
			continue
		}
		attempted++
		rt := traces[reqKey{o.client, o.seq, o.read}]
		if rt == nil {
			continue
		}
		repeats += rt.sends - 1
		if o.read || !rt.target.IsReplica() || int(rt.target) >= clusterN || rt.arrive[rt.target].IsZero() {
			continue
		}
		reached++
		if rt.propose.IsZero() {
			dropped++
		}
	}
	add("batch.dropped_frac", "frac", ratio(float64(dropped), float64(reached)), reached)
	add("client.retries_per_txn", "count", ratio(float64(repeats), float64(attempted)), attempted)

	tr.mu.Lock()
	msgs, bytes := tr.msgs, tr.bytes
	sendCalls, sendTime := tr.sendCalls, tr.sendTime
	samples := tr.samples
	batches := contiguousBatches(tr.batches, maxBatches)
	firstVC, firstNV := tr.firstVC, tr.firstNV
	tr.mu.Unlock()

	var allMsgs, allBytes int64
	for k := range msgs {
		allMsgs += msgs[k]
		allBytes += bytes[k]
	}
	add("net.msgs_per_txn", "count", ratio(float64(allMsgs), done), int(allMsgs))
	add("net.bytes_per_txn", "B", ratio(float64(allBytes), done), int(allMsgs))
	for k := msgKind(0); k < nKinds; k++ {
		add("net.bytes_per_txn."+kindNames[k], "B", ratio(float64(bytes[k]), done), int(msgs[k]))
	}
	add("net.send_us", "us", ratio(float64(sendTime.Microseconds()), float64(sendCalls)), int(sendCalls))

	enc, dec, n, err := timeCodec(samples, msgs)
	if err != nil {
		problems = append(problems, err.Error())
	}
	add("wire.encode_us", "us", enc, n)
	add("wire.decode_us", "us", dec, n)

	sign, verify, mac, n, bad := timeCrypto(c, samples)
	if bad > 0 {
		problems = append(problems, fmt.Sprintf("%d sampled client requests carry a signature that does not verify", bad))
	}
	add("client.sign_us", "us", sign, n)
	add("crypto.client_verify_us", "us", verify, n)
	add("crypto.mac_us", "us", mac, len(samples[kInform]))

	apply, txns, err := timeApply(c.table, batches)
	if err != nil {
		problems = append(problems, err.Error())
	}
	add("store.apply_us_per_txn", "us", apply, txns)

	walGroups := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.WALGroups })
	walRecs := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.WALGroupedRecords })
	add("wal.group_size", "count", ratio(float64(walRecs), float64(walGroups)), int(walGroups))
	var appendUs, fsyncUs float64
	var walTimed int
	if spec.durable {
		walTimed = min(len(batches), walRecords)
		plain, err1 := timeAppend(filepath.Join(dataDir, "wal-nosync"), batches, false)
		synced, err2 := timeAppend(filepath.Join(dataDir, "wal-sync"), batches, true)
		for _, err := range []error{err1, err2} {
			if err != nil {
				problems = append(problems, err.Error())
			}
		}
		appendUs, fsyncUs = plain, synced-plain
	}
	add("wal.append_us", "us", appendUs, walTimed)
	add("wal.fsync_us", "us", fsyncUs, walTimed)
	checkpoints := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.Checkpoints })
	add("checkpoints_per_s", "1/s", ratio(float64(checkpoints), nLive*window), int(checkpoints))

	var maxDepth int64
	for _, m := range res.after {
		maxDepth = max(maxDepth, m.EgressMaxDepth)
	}
	add("egress.max_depth", "count", float64(maxDepth), 0)
	add("egress.depth", "count", mean(res.egressDepth), len(res.egressDepth))

	spec2 := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.SpecReads })
	strong := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.StrongReads })
	fallbacks := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.ReadFallbacks })
	grants := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.LeaseGrants })
	add("read.spec_serves", "count", float64(spec2), 0)
	add("read.strong_serves", "count", float64(strong), 0)
	add("read.fallback_frac", "frac", ratio(float64(fallbacks), float64(spec2+strong+fallbacks)), int(spec2+strong+fallbacks))
	add("lease.grants_per_s", "1/s", ratio(float64(grants), window), int(grants))

	started := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.ViewChanges })
	vcDone := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.ViewChangesDone })
	rollbacks := replicaDelta(res, live, func(m protocol.MetricsSnapshot) int64 { return m.Rollbacks })
	add("vc.started", "count", ratio(float64(started), nLive), 0)
	add("vc.done", "count", ratio(float64(vcDone), nLive), 0)
	add("rollbacks", "count", ratio(float64(rollbacks), nLive), 0)

	detect, elect, resume := failoverPhases(res, firstVC, firstNV)
	add("failover.detect_s", "s", detect, 0)
	add("failover.elect_s", "s", elect, 0)
	add("failover.resume_s", "s", resume, 0)

	var lags []time.Duration
	for _, o := range res.outcomes {
		if o.measured && !o.shed {
			lags = append(lags, o.dispatch.Sub(o.arrival))
		}
	}
	lagMs := durationsMs(lags)
	add("gen.lag_ms", "ms", percentile(lagMs, 0.99), len(lagMs))
	add("gc.pause_ms_per_s", "ms/s", ratio(float64(res.memEnd.pauseTotal-res.memStart.pauseTotal)/1e6, window), 0)
	add("alloc_kb_per_txn", "KiB", ratio(float64(res.memEnd.totalAlloc-res.memStart.totalAlloc)/1024, done), int(done))
	add("trace.overhead_frac", "frac", overhead, 0)
	return out, problems
}

// failoverPhases splits the outage after the crash: crash → first VCRequest
// sent, → first NVPropose sent, → first accepted reply after that. All zero
// when no replica crashed.
func failoverPhases(res *loadResult, firstVC, firstNV time.Time) (detect, elect, resume float64) {
	if res.crashAt.IsZero() || firstVC.IsZero() {
		return 0, 0, 0
	}
	detect = firstVC.Sub(res.crashAt).Seconds()
	if firstNV.IsZero() {
		return detect, 0, 0
	}
	elect = firstNV.Sub(firstVC).Seconds()
	var first time.Time
	for _, o := range res.outcomes {
		if o.completed() && o.done.After(firstNV) && (first.IsZero() || o.done.Before(first)) {
			first = o.done
		}
	}
	if !first.IsZero() {
		resume = first.Sub(firstNV).Seconds()
	}
	return detect, elect, resume
}

// contiguousBatches returns the captured proposals for sequence numbers
// 1, 2, … up to the first gap, at most limit of them.
func contiguousBatches(m map[types.SeqNum]types.Batch, limit int) []types.Batch {
	var out []types.Batch
	for s := types.SeqNum(1); len(out) < limit; s++ {
		b, ok := m[s]
		if !ok {
			break
		}
		out = append(out, b)
	}
	return out
}

// timeCodec times wire.Marshal and wire.Unmarshal over the sampled messages.
// The per-kind means are weighted by how many messages of each kind the
// window sent, giving the mean cost per message sent.
func timeCodec(samples [nKinds][]wire.Message, weights [nKinds]int64) (encUs, decUs float64, n int, err error) {
	var wsum float64
	for k := range samples {
		if len(samples[k]) == 0 || weights[k] == 0 {
			continue
		}
		var enc, dec time.Duration
		for pass := 0; pass < codecPasses; pass++ {
			for _, m := range samples[k] {
				start := time.Now()
				body := wire.Marshal(m)
				mid := time.Now()
				_, derr := wire.Unmarshal(m.WireID(), body)
				dec += time.Since(mid)
				enc += mid.Sub(start)
				if derr != nil && err == nil {
					err = fmt.Errorf("sampled %s does not decode: %w", kindNames[k], derr)
				}
			}
		}
		calls := float64(codecPasses * len(samples[k]))
		w := float64(weights[k])
		encUs += w * float64(enc.Nanoseconds()) / 1e3 / calls
		decUs += w * float64(dec.Nanoseconds()) / 1e3 / calls
		wsum += w
		n += len(samples[k])
	}
	return ratio(encUs, wsum), ratio(decUs, wsum), n, err
}

// timeCrypto times the client's request signature, a replica's check of it,
// and a replica's reply MAC, over the sampled requests and informs.
func timeCrypto(c *cluster, samples [nKinds][]wire.Message) (signUs, verifyUs, macUs float64, n, bad int) {
	var reqs []types.Request
	for _, m := range samples[kClientRequest] {
		reqs = append(reqs, m.(*protocol.ClientRequest).Req)
	}
	for _, m := range samples[kReadRequest] {
		reqs = append(reqs, m.(*protocol.ReadRequest).Req)
	}
	cl := c.clients[0]
	keys := c.ring.NodeKeys(types.ReplicaNode(1))
	var sign, verify time.Duration
	for i := range reqs {
		start := time.Now()
		cl.Sign(reqs[i].Txn)
		mid := time.Now()
		d := reqs[i].Digest()
		ok := keys.VerifyFrom(types.ClientNode(reqs[i].Txn.Client), d[:], reqs[i].Sig)
		verify += time.Since(mid)
		sign += mid.Sub(start)
		if !ok {
			bad++
		}
	}
	var mac time.Duration
	informs := samples[kInform]
	for _, m := range informs {
		inf := m.(*protocol.Inform)
		start := time.Now()
		keys.MAC(types.ClientNode(types.ClientIDBase), inf.Digest[:])
		mac += time.Since(start)
	}
	us := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds())/1e3, float64(n)) }
	return us(sign, len(reqs)), us(verify, len(reqs)), us(mac, len(informs)), len(reqs), bad
}

// timeApply applies the captured proposals to a fresh store holding the
// preloaded table and returns the mean time per transaction.
func timeApply(table map[string][]byte, batches []types.Batch) (usPerTxn float64, txns int, err error) {
	kv := store.New()
	kv.Load(table)
	owned := make([]types.Batch, len(batches))
	for i, b := range batches {
		owned[i] = b.Clone()
		txns += b.Size()
	}
	start := time.Now()
	for i := range owned {
		if _, err := kv.Apply(types.SeqNum(i+1), &owned[i]); err != nil {
			return 0, txns, fmt.Errorf("store apply of captured batch %d: %w", i+1, err)
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds())/1e3, float64(txns)), txns, nil
}

// timeAppend appends execution records built from the captured proposals to
// a fresh store and returns the mean time per synchronous Append.
func timeAppend(dir string, batches []types.Batch, sync bool) (float64, error) {
	if len(batches) > walRecords {
		batches = batches[:walRecords]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := storage.Open(dir, storage.Options{Sync: sync})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var total time.Duration
	for i, b := range batches {
		b = b.Clone()
		rec := types.ExecRecord{Seq: types.SeqNum(i + 1), Digest: b.Digest(), Batch: b}
		start := time.Now()
		if err := st.Append(&rec); err != nil {
			return 0, fmt.Errorf("WAL append timing: %w", err)
		}
		total += time.Since(start)
	}
	return ratio(float64(total.Nanoseconds())/1e3, float64(len(batches))), nil
}
