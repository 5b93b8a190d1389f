// Command serving shows a non-Analysis engine behind the fivm-serve
// stack: a grouped COUNT engine (orders per status over an
// orders ⋈ customers join) hosted by the concurrent serving layer and
// queried through the public fivm/client package while updates stream
// in over the v1 HTTP API.
//
// Everything the daemon does — sharded batched ingestion, lock-free
// published models, the HTTP surface — is engine-agnostic: the same
// serve.Server would host a float-SUM, COVAR, or full analysis engine;
// only the fivm.Open config differs.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/serve"
	"repro/internal/value"
)

func main() {
	// Orders(order_id, cust_id, status) ⋈ Customers(cust_id, region):
	// count orders per status.
	eng, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{
			{Name: "Orders", Attrs: []string{"order_id", "cust_id", "status"}},
			{Name: "Customers", Attrs: []string{"cust_id", "region"}},
		},
		Query: "SELECT status, SUM(1) FROM Orders NATURAL JOIN Customers GROUP BY status",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Init(map[string][]value.Tuple{
		"Customers": {
			value.T(1, "emea"), value.T(2, "emea"), value.T(3, "apac"),
		},
		"Orders": {
			value.T(100, 1, "open"), value.T(101, 2, "open"), value.T(102, 3, "shipped"),
		},
	}); err != nil {
		log.Fatal(err)
	}

	// Wrap the engine in the serving pipeline and expose it over HTTP on
	// an ephemeral port.
	srv, err := serve.New(eng, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: serve.NewHandler(srv)}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("count engine (%s) serving on %s\n\n", srv.Kind(), base)

	// The typed client speaks the v1 wire protocol: POST /v1/update,
	// GET /v1/model, GET /v1/stats, with the uniform error envelope
	// unwrapped into *client.APIError and 429s retried with backoff.
	ctx := context.Background()
	cli := client.New(base)

	model, err := cli.Model(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GET /v1/model (initial):")
	fmt.Println(indentJSON(model.Body))

	// Stream updates: two new open orders, one ships, one cancels
	// (delete). wait=true gives read-your-writes before the next GET.
	ack, err := cli.Update(ctx, []client.Update{
		client.NewUpdate("Orders", 1, 103, 1, "open"),
		client.NewUpdate("Orders", 1, 104, 3, "open"),
		client.NewUpdate("Orders", -1, 100, 1, "open"),
		client.NewUpdate("Orders", 1, 100, 1, "shipped"),
	}, true)
	if err != nil {
		log.Fatal(err)
	}

	model, err = cli.Model(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGET /v1/model (after streaming %d updates):\n", ack.Accepted)
	fmt.Println(indentJSON(model.Body))

	stats, err := cli.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nGET /v1/stats:")
	fmt.Println(indentJSON(stats.Raw))
}

func indentJSON(v any) string {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(out)
}
