package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// The engines under test, as the flags both binaries take.
const covarAttrs = "inventoryunits,prize,avghhi,maxtemp,medianage,population"

// connections is the number of client connections every workload
// drives. It equals nproc on the reference box and is fixed, not
// derived, so a run on a bigger machine measures the same traffic.
const connections = 2

// workload is one traffic mix against one system under test.
type workload struct {
	name string
	// rows is the base database's Inventory size and window the number
	// of streamed facts live on top of it.
	rows, window int
	// attrs selects the covar engine over these attributes. Without it
	// the server runs its -db retailer preset: the analysis engine,
	// bulk-loaded by the server itself at start-up.
	attrs string
	// cluster runs fivm-cluster -spawn 2 with a fsync-always WAL instead
	// of one WAL-less fivm-serve.
	cluster bool
	// batch is the number of fact updates per write request.
	batch int
	// replaceEvery adds a Weather-row replace to every n-th write (0:
	// none).
	replaceEvery int
	// readEvery: each connection reads the model after every n-th
	// write.
	readEvery int
}

var workloads = []workload{
	{
		// The paper's throughput experiment over a socket. The engine is
		// cheap, so JSON decode, BuildDelta and ApplyBuilt are comparable
		// shares: a wire-path or per-tuple engine gain shows here. WAL
		// and router are bypassed.
		name: "ingest-covar", rows: 100_000, window: 50_000,
		attrs: covarAttrs, batch: 1000, readEvery: 8,
	},
	{
		// The paper's three applications on the compound categorical
		// ring. ApplyBuilt (ring.RelCovar math) and PublishModel (payload
		// clone + warm-started ridge refit) are over 90% of the time; a
		// wire gain must show no change here.
		//
		// This engine applies a bulk load through the delta path at under
		// 4000 tuples/s, so three set-ups of a 100 000-row base would
		// take longer than the driver allows a whole run. The server
		// loads its own preset instead (in-process Init, about 2 s), and
		// the window is smaller to keep the warm-up short.
		name: "ingest-analysis", rows: 100_000, window: 10_000,
		batch: 100, readEvery: 8,
	},
	{
		// The same server as ingest-covar used differently: one tuple per
		// request, so the engine does almost nothing and per-request
		// overhead decides (HTTP, dedup table, batcher hand-off, one
		// publish per request, snapshot reads beside writes).
		name: "trickle-covar", rows: 100_000, window: 50_000,
		attrs: covarAttrs, batch: 1, readEvery: 4,
	},
	{
		// The full routed, durable path: router decode, partition,
		// re-encode and fan-out, per-shard WAL append + fsync on the ack
		// path, checkpoints, partial encode + ring merge for reads. Ends
		// with kill -9 of one worker and its recovery.
		name: "cluster-durable", rows: 100_000, window: 50_000,
		attrs: covarAttrs, cluster: true, batch: 500, replaceEvery: 4, readEvery: 2,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// relationsFlag renders the Retailer schema as the -relations flag.
func relationsFlag() string {
	attrs := dataset.RetailerAttrs()
	var parts []string
	for _, name := range relationNames {
		parts = append(parts, name+":"+strings.Join(attrs[name], ","))
	}
	return strings.Join(parts, ";")
}

// preset reports whether the server runs (and loads) its own -db
// retailer preset.
func (w workload) preset() bool { return w.attrs == "" }

// engineFlags are the engine-defining flags of fivm-serve and
// fivm-cluster.
func (w workload) engineFlags() []string {
	if w.preset() {
		return []string{"-db", "retailer", "-rows", strconv.Itoa(w.rows)}
	}
	return []string{"-relations", relationsFlag(), "-attrs", w.attrs}
}
