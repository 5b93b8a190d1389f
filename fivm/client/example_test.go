package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/serve"
	"repro/internal/value"
)

// Example drives a non-Analysis engine behind the serving stack: a
// grouped COUNT engine (orders per status over Orders ⋈ Customers)
// hosted by the concurrent serving layer and queried through the typed
// client while updates stream in over the v1 HTTP API. The serving
// layer is engine-agnostic: the same serve.Server hosts a float-SUM,
// COVAR or full analysis engine; only the fivm.Open config differs.
func Example() {
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
		"Customers": {value.T(1, "emea"), value.T(2, "emea"), value.T(3, "apac")},
		"Orders":    {value.T(100, 1, "open"), value.T(101, 2, "open"), value.T(102, 3, "shipped")},
	}); err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(serve.NewHandler(srv))
	defer ts.Close()

	ctx := context.Background()
	cli := client.New(ts.URL)
	printModel := func(title string) {
		model, err := cli.Model(ctx)
		if err != nil {
			log.Fatal(err)
		}
		body, err := json.MarshalIndent(model.Body, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GET /v1/model (%s):\n%s\n", title, body)
	}
	printModel("initial")

	// Two new open orders, one ships (a delete and an insert). wait=true
	// gives read-your-writes before the next GET.
	ack, err := cli.Update(ctx, []client.Update{
		client.NewUpdate("Orders", 1, 103, 1, "open"),
		client.NewUpdate("Orders", 1, 104, 3, "open"),
		client.NewUpdate("Orders", -1, 100, 1, "open"),
		client.NewUpdate("Orders", 1, 100, 1, "shipped"),
	}, true)
	if err != nil {
		log.Fatal(err)
	}
	printModel(fmt.Sprintf("after streaming %d updates", ack.Accepted))

	stats, err := cli.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET /v1/stats: kind=%s ingested=%d applied=%d snapshot_version=%s\n",
		stats.Kind, stats.Ingested, stats.Applied, stats.Raw["snapshot_version"])
	// Output:
	// GET /v1/model (initial):
	// {
	//   "attrs": [
	//     "status"
	//   ],
	//   "kind": "count",
	//   "rows": [
	//     {
	//       "key": [
	//         "open"
	//       ],
	//       "value": 2
	//     },
	//     {
	//       "key": [
	//         "shipped"
	//       ],
	//       "value": 1
	//     }
	//   ],
	//   "total": 3,
	//   "version": 1
	// }
	// GET /v1/model (after streaming 4 updates):
	// {
	//   "attrs": [
	//     "status"
	//   ],
	//   "kind": "count",
	//   "rows": [
	//     {
	//       "key": [
	//         "open"
	//       ],
	//       "value": 3
	//     },
	//     {
	//       "key": [
	//         "shipped"
	//       ],
	//       "value": 2
	//     }
	//   ],
	//   "total": 5,
	//   "version": 2
	// }
	// GET /v1/stats: kind=count ingested=4 applied=4 snapshot_version=2
}
