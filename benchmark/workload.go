package main

import (
	"fmt"
	"math/rand"

	"psaflow/internal/bench"
)

// A job is one program through one PSA-flow to a result record.
type job struct {
	App    string // one of the paper's five applications
	Mode   string // "informed" or "uninformed"
	Flow   string // registered flow the job names; "" = the built-in graph
	Tenant string
	Node   int  // daemon the client submits to and reads the result from
	Salt   int  // which salted variant of the application's source
	Repeat bool // cluster_hop: the cluster has seen this program before
}

// class groups jobs whose latencies are comparable: job_ms_geomean weighs
// every class the same.
func (j job) class() string {
	c := j.App + "/" + j.Mode
	if j.Flow != "" {
		c += "/flow"
	}
	if j.Repeat {
		c += "/repeat"
	}
	return c
}

// A workload is a fixed list of jobs per round. The first Warmup rounds are
// discarded, the rounds after them measured.
type workload struct {
	Name string
	Why  string
	// Nodes is how many daemons serve the jobs; 0 calls the engine
	// directly.
	Nodes int
	// Warmup is how many rounds run before measuring starts: enough for the
	// process to stop changing.
	Warmup int
	// Rounds is how many rounds are measured when -seconds does not end the
	// run sooner.
	Rounds int
	jobs   func(seed int64, round int) []job
}

var modes = [2]string{"informed", "uninformed"}

// registeredFlow is the name examples/flows/paper.psa is registered under.
const registeredFlow = "paper"

var workloads = []workload{
	{
		Name:   "flow_cold",
		Why:    "Fig. 5 through the engine alone with fresh caches per job: parse, VM, analyses and DSE do all the work, the daemon none",
		Nodes:  0,
		Warmup: 1,
		Rounds: 11,
		jobs: func(seed int64, round int) []job {
			js := make([]job, 20)
			for i := range js {
				js[i] = job{App: appNames[i%5], Mode: modes[(i/5)%2], Salt: i / 10}
			}
			return shuffled(js, seed, round)
		},
	},
	{
		Name:   "serve_unique",
		Why:    "one daemon, every program never seen before: the miss and insert side of the caches plus the whole submit path",
		Nodes:  1,
		Warmup: 1,
		Rounds: 9,
		jobs: func(seed int64, round int) []job {
			js := make([]job, 30)
			for i := range js {
				js[i] = job{App: appNames[i%5], Mode: modes[(i/5)%2], Salt: round*30 + i}
			}
			return shuffled(js, seed, round)
		},
	},
	{
		Name:  "serve_hot",
		Why:   "one daemon, 20 warmed programs resubmitted: the hit side of the caches, so flow-engine, compile, decode, fsync and encode overhead is all that is left",
		Nodes: 1,
		// A daemon keeps its last 1024 finished jobs (service.Config.RetainJobs).
		// Until that many have finished the heap grows and jobs run a fifth
		// slower, so measuring starts after 1200.
		Warmup: 3,
		Rounds: 11,
		jobs: func(seed int64, round int) []job {
			// 20 laps over a pool of 5 apps x 4 variants. Mode and flow
			// reference rotate against the pool so that every program meets
			// both modes and every app is every 5th job once per lap.
			js := make([]job, 400)
			for i := range js {
				p, lap := i%20, i/20
				js[i] = job{App: appNames[p%5], Mode: modes[(lap+p)%2], Salt: p / 5}
				if (i+lap)%5 == 4 {
					js[i].Flow = registeredFlow
				}
			}
			return shuffled(js, seed, round)
		},
	},
	{
		Name:   "cluster_hop",
		Why:    "two nodes, each new program submitted by four tenants through alternating nodes: placement, forward, result proxy and peer run-cache fetch",
		Nodes:  2,
		Warmup: 1,
		Rounds: 9,
		jobs: func(seed int64, round int) []job {
			// Shuffle 30 programs x 4 submissions; the n-th time a program
			// comes up it is tenant n's, so its first submission is the only
			// one the cluster has to compute.
			order := make([]int, 120)
			for i := range order {
				order[i] = i % 30
			}
			rng := roundRNG(seed, round)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			seen := make([]int, 30)
			js := make([]job, len(order))
			for i, v := range order {
				js[i] = job{
					App: appNames[v%5], Mode: modes[(v/5)%2], Salt: round*30 + v,
					Tenant: fmt.Sprintf("tenant-%d", seen[v]), Node: i % 2, Repeat: seen[v] > 0,
				}
				seen[v]++
			}
			return js
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// minRounds is the fewest rounds a run measures however short -seconds is
// and however slow the machine: a median over fewer says little.
const minRounds = 3

func roundRNG(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(round)))
}

func shuffled(js []job, seed int64, round int) []job {
	roundRNG(seed, round).Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
	return js
}

var appNames = func() []string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}()

// salted returns the application's bundled source plus one function the
// program never calls: a new minic.Fingerprint, hence a miss in every
// cache, with the same hotspot and the same designs.
func salted(b *bench.Benchmark, seed int64, k int) string {
	return fmt.Sprintf("%s\nint bench_salt_%d_%d(int x) { return x + %d; }\n", b.Source, seed, k, k)
}
