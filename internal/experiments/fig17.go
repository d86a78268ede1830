package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/metrics"
	"jenga/internal/model"
	"jenga/internal/trace"
	"jenga/internal/workload"
)

// Fig17 reproduces the prefix-caching study: questions over a pool of
// long arXiv articles (multiple questions per article), sweeping the
// pool size. With few articles both systems cache everything; as the
// pool outgrows KV memory, Jenga's window-aware eviction (out-of-window
// tokens are evicted first, and aligned/balanced eviction keeps whole
// prefixes intact) sustains a higher hit rate and token throughput.
//
// Paper shapes: up to 1.60× higher hit rate and 1.77× throughput at
// large pool sizes; a slight Jenga overhead at small pools (it
// allocates per layer type instead of once).
func Fig17(w io.Writer, opt Options) error {
	opt = opt.norm()
	spec := model.Gemma2_27B()
	dev := gpu.H100()
	questionsPerArticle := 4

	tbl := trace.NewTable("Fig. 17 prefix caching vs number of articles (Gemma-2 27B, H100)",
		"articles", "vLLM hit %", "Jenga hit %", "hit ratio", "vLLM tok/s", "Jenga tok/s", "speedup")

	runs := vs(run{spec: spec, dev: dev, cache: true, eng: engine.Config{
		MaxBatchTokens: 8192, MaxPrefills: 2,
		// Equal batch ceilings isolate the eviction-policy comparison:
		// the question is what each manager keeps cached, not how many
		// requests it can run.
		MaxRunning: 4,
	}})
	for _, articles := range []int{2, 4, 8, 16, 24} {
		load := func() []workload.Request {
			g := workload.NewGen(opt.Seed)
			arts := g.Articles(articles, 10000)
			// Q questions per article, in random arrival order (users
			// ask about different documents concurrently).
			var reqs []workload.Request
			for q := 0; q < questionsPerArticle; q++ {
				for a := 0; a < articles; a++ {
					r := g.ArxivQA(arts[a:a+1], 1, 120)[0]
					r.OutputLen = 60
					reqs = append(reqs, r)
				}
			}
			rng := rand.New(rand.NewSource(opt.Seed))
			rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
			// Interactive QA arrives at a steady rate; the cache serves
			// across requests, not just within one saturated batch.
			g.PoissonArrivals(reqs, 1.0)
			return reqs
		}
		res, err := serveEach(load, runs)
		if err != nil {
			return fmt.Errorf("fig17 %d articles: %w", articles, err)
		}
		vHit, vToks := res[0].HitRate, res[0].TokensPerSec
		jHit, jToks := res[1].HitRate, res[1].TokensPerSec
		tbl.AddRow(articles,
			fmt.Sprintf("%.1f", vHit*100),
			fmt.Sprintf("%.1f", jHit*100),
			fmt.Sprintf("%.2fx", metrics.Speedup(jHit, vHit)),
			fmt.Sprintf("%.0f", vToks),
			fmt.Sprintf("%.0f", jToks),
			fmt.Sprintf("%.2fx", metrics.Speedup(jToks, vToks)))
	}
	return emit(w, opt, tbl)
}
