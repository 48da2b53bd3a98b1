// SQL on ADAMANT: the paper assumes query plans arrive from "any existing
// optimizer"; this example uses the built-in SQL front-end as that
// optimizer, running analytics — including an IN-subquery semi-join and a
// GROUP BY — on the simulated GPU.
package main

import (
	"fmt"
	"log"

	adamant "github.com/adamant-db/adamant"
)

func main() {
	eng := adamant.NewEngine()
	gpu, err := eng.Plug(adamant.A100, adamant.CUDA)
	if err != nil {
		log.Fatal(err)
	}

	// A small star schema: orders referencing customers.
	const n = 1 << 20
	amount := make([]int32, n)
	custID := make([]int32, n)
	day := make([]int32, n)
	for i := range amount {
		amount[i] = int32(i%500 + 1)
		custID[i] = int32(i % 1000)
		day[i] = int32(i % 365)
	}
	orders := adamant.NewTable("orders", n)
	for col, vals := range map[string][]int32{"amount": amount, "cust_id": custID, "day": day} {
		if err := orders.AddInt32(col, vals); err != nil {
			log.Fatal(err)
		}
	}

	tier := make([]int32, 1000)
	id := make([]int32, 1000)
	for i := range tier {
		id[i] = int32(i)
		tier[i] = int32(i % 3) // 0=basic, 1=silver, 2=gold
	}
	customers := adamant.NewTable("customers", 1000)
	if err := customers.AddInt32("id", id); err != nil {
		log.Fatal(err)
	}
	if err := customers.AddInt32("tier", tier); err != nil {
		log.Fatal(err)
	}

	cat := adamant.NewCatalog(orders, customers)

	queries := []string{
		`SELECT SUM(amount) AS total, COUNT(*) AS n FROM orders WHERE day BETWEEN 90 AND 179`,
		`SELECT MAX(amount) AS biggest FROM orders
		 WHERE cust_id IN (SELECT id FROM customers WHERE tier = 2)`,
		`SELECT day, SUM(amount) AS revenue, COUNT(*) AS orders
		 FROM orders
		 WHERE amount >= 400 AND cust_id IN (SELECT id FROM customers WHERE tier = 2)
		 GROUP BY day
		 ORDER BY revenue DESC
		 LIMIT 5`,
	}

	for _, q := range queries {
		res, err := eng.Query(cat, gpu, q, adamant.QueryOptions{
			ExecOptions: adamant.ExecOptions{Model: adamant.FourPhasePipelined, ChunkElems: 1 << 17},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", q)
		fmt.Printf("  -> %v simulated, %d chunks\n", res.Stats().Elapsed, res.Stats().Chunks)
		cols := res.Columns()
		rows := res.Len(cols[0])
		show := rows
		if show > 5 {
			show = 5
		}
		for i := 0; i < show; i++ {
			fmt.Print("  ")
			for _, c := range cols {
				fmt.Printf("%s=%d  ", c, res.Int64(c)[i])
			}
			fmt.Println()
		}
		if rows > show {
			fmt.Printf("  ... %d more rows\n", rows-show)
		}
	}
}
