package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

// Settings every workload shares.
const (
	// nproc is the GOMAXPROCS the whole process runs under.
	nproc = 2
	// clientCount is the number of client identities. Each has at most one
	// request outstanding, the client model the protocol's per-client
	// sequence numbers assume (see README.md).
	clientCount = 32
	// records is the size of the preloaded table.
	records = 10_000
	// requestTimeout fails a request with no accepted reply this long after
	// its scheduled arrival.
	requestTimeout = 10 * time.Second
	// latencyLimit is the goodput threshold.
	latencyLimit = 50 * time.Millisecond
	// warmupTime is the unmeasured load that precedes the window.
	warmupTime = 5 * time.Second
	// arrivalSeed fixes the Poisson arrival schedule; the workload seed only
	// changes what the requests contain.
	arrivalSeed = 1
	// maxQueued bounds the arrivals waiting for a free client; an arrival
	// beyond it is shed and counted as failed.
	maxQueued = 1 << 14
)

// workloadSpec is one traffic mix at one offered rate.
type workloadSpec struct {
	name string
	// rate is the offered load in transactions per second.
	rate float64
	// durable replicas log to a WAL with fsync and take checkpoint
	// snapshots; volatile ones keep everything in memory.
	durable bool
	// crashPrimary crash-stops replica 0, the view-0 primary, a third of the
	// way into the window.
	crashPrimary bool
	// readFraction overrides the paper mix's 10% reads when non-zero.
	readFraction float64
	// readSplit tags half the read-only transactions SPECULATIVE and half
	// STRONG; otherwise every transaction is ordered.
	readSplit bool
}

func (w workloadSpec) config(seed int64) workload.Config {
	cfg := workload.DefaultConfig(records)
	cfg.Seed = seed
	if w.readFraction > 0 {
		cfg.WriteFraction = 1 - w.readFraction
	}
	if w.readSplit {
		cfg.SpeculativeFraction = 0.5
		cfg.StrongFraction = 0.5
	}
	return cfg
}

// The rates keep the in-process cluster at about 30% of its two cores. At
// 800 txn/s (about 60% of the knee) p50 moved by up to 2x and p95 by up to 3x
// between runs on a shared 2-vCPU VM: host contention pushed the cluster into
// queueing.
//
// There is no read-heavy workload: a read served without ordering takes
// about 1 ms, and on a shared 2-vCPU VM the median of such reads moved by 25%
// to 37% across ten runs of the same code, as the host alternated between
// quiet and contended spells lasting minutes. write-durable splits its reads
// between the two unordered tiers instead, so the read path and the lease
// are measured per layer while its median stays a write.
var workloads = []workloadSpec{
	{
		name:      "write-durable",
		rate:      400,
		durable:   true,
		readSplit: true,
	},
	{
		name:         "primary-failover",
		rate:         500,
		crashPrimary: true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// outcome is one arrival's fate. Each is written by the goroutine serving
// the request and read only after every such goroutine has returned.
type outcome struct {
	client   types.ClientID
	seq      uint64
	read     bool
	measured bool
	arrival  time.Time // scheduled
	dispatch time.Time // handed to the client
	done     time.Time // accepted reply; zero when failed or shed
	shed     bool
}

func (o *outcome) completed() bool { return !o.done.IsZero() }

// loadResult is what one open-loop run observed from the client side.
type loadResult struct {
	measureStart, end time.Time
	drained           time.Time
	crashAt           time.Time
	outcomes          []*outcome
	cpu               time.Duration // process user+sys CPU over the window
	memStart, memEnd  memSample
	before, after     []protocol.MetricsSnapshot
	egressDepth       []float64 // sampled per-replica egress depths (traced runs)
}

func (r *loadResult) window() time.Duration { return r.end.Sub(r.measureStart) }

// arrival is one scheduled request waiting for a free client.
type arrival struct {
	o   *outcome
	txn types.Transaction
}

// drive runs open-loop Poisson arrivals at the workload's rate against the
// cluster for warmup + window, then waits until every request has completed or
// failed. The transactions come from one generator seeded by seed, in arrival
// order. Arrivals queue for the next free client, which stamps its identity
// and next sequence number on the transaction and submits it; the time an
// arrival waits for a client counts against its latency.
func drive(c *cluster, spec workloadSpec, seed int64, warmup, window time.Duration, tr *tracer) *loadResult {
	gen := workload.NewGenerator(spec.config(seed), types.ClientIDBase)
	rng := rand.New(rand.NewSource(arrivalSeed))
	res := &loadResult{}
	queue := make(chan arrival, maxQueued)
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(id types.ClientID, cl *client.Client) {
			defer wg.Done()
			for a := range queue {
				submit(c, id, cl, a)
			}
		}(types.ClientIDBase+types.ClientID(i), cl)
	}

	start := time.Now()
	res.measureStart = start.Add(warmup)
	res.end = res.measureStart.Add(window)

	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		sampleWindow(c, spec, res, tr)
	}()

	next := start
	for {
		if !next.Before(res.end) {
			break
		}
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
			continue
		}
		o := &outcome{arrival: next, measured: !next.Before(res.measureStart)}
		next = next.Add(time.Duration(rng.ExpFloat64() / spec.rate * float64(time.Second)))
		res.outcomes = append(res.outcomes, o)
		select {
		case queue <- arrival{o, gen.Next()}:
		default:
			o.shed = true
		}
	}
	close(queue)
	// The last arrival precedes the window's end; the sampler returns once it
	// has taken the end-of-window readings.
	samplerWG.Wait()
	wg.Wait()
	res.drained = time.Now()
	res.after = snapshots(c)
	return res
}

// submit sends one arrival as client id and records its fate.
func submit(c *cluster, id types.ClientID, cl *client.Client, a arrival) {
	o, txn := a.o, a.txn
	o.dispatch = time.Now()
	o.client = id
	o.read = txn.Consistency != types.ConsistencyOrdered
	txn.Client = id
	if o.read {
		txn.Seq = cl.NextReadSeq()
	} else {
		txn.Seq = cl.NextSeq()
	}
	o.seq = txn.Seq
	ctx, cancel := context.WithDeadline(context.Background(), o.arrival.Add(requestTimeout))
	defer cancel()
	if o.read {
		ans, err := cl.ReadTxn(ctx, txn)
		if err != nil {
			return
		}
		o.done = time.Now()
		c.audit.observe(txn, ans)
		return
	}
	if _, err := cl.SubmitTxn(ctx, txn); err == nil {
		o.done = time.Now()
	}
}

// sampleWindow takes the window-start and window-end readings (replica
// metrics, process CPU and memory), crashes the primary when the workload
// asks for it, and, in traced runs, samples egress queue depth every
// millisecond. It returns at the end of the window.
func sampleWindow(c *cluster, spec workloadSpec, res *loadResult, tr *tracer) {
	time.Sleep(time.Until(res.measureStart))
	res.before = snapshots(c)
	res.memStart = readMem()
	if tr != nil {
		tr.measuring.Store(true)
	}
	var crash <-chan time.Time
	if spec.crashPrimary {
		crash = time.After(time.Until(res.measureStart.Add(res.window() / 3)))
	}
	var tick <-chan time.Time
	if tr != nil {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		tick = t.C
	}
	end := time.After(time.Until(res.end))
	for {
		select {
		case <-crash:
			res.crashAt = time.Now()
			if tr != nil {
				tr.setCrash(res.crashAt)
			}
			c.crash(0)
		case <-tick:
			for i, r := range c.replicas {
				if !c.crashed[i] {
					res.egressDepth = append(res.egressDepth, float64(r.Runtime().Metrics.EgressDepth.Load()))
				}
			}
		case <-end:
			res.memEnd = readMem()
			res.cpu = res.memEnd.cpu - res.memStart.cpu
			if tr != nil {
				tr.measuring.Store(false)
			}
			return
		}
	}
}

// snapshots reads every replica's counters.
func snapshots(c *cluster) []protocol.MetricsSnapshot {
	out := make([]protocol.MetricsSnapshot, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.Runtime().Metrics.Snapshot()
	}
	return out
}
