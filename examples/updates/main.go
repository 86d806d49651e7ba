// Updates: a cracked store under a live insert/delete stream. Writes land in
// pending buffers that the cracker indexes absorb in batches — as idle-time
// merge steps, or inline when a writer fills a buffer to its cap (the
// "Updating a Cracked Database" design) — and every query adds what is still
// buffered in its range, so answers stay correct while the physical design
// keeps adapting.
package main

import (
	"fmt"
	"log"

	"holistic"
)

func main() {
	eng := holistic.New(holistic.Config{
		Strategy:        holistic.StrategyHolistic,
		Seed:            5,
		TargetPieceSize: 1 << 10,
	})
	defer eng.Close()

	orders, err := eng.CreateTable("orders")
	if err != nil {
		log.Fatal(err)
	}
	const n = 200_000
	if err := orders.AddColumnFromSlice("amount", holistic.GenerateUniform(61, n, 1, 100_000)); err != nil {
		log.Fatal(err)
	}

	// Crack the column with a few queries first.
	for i := int64(0); i < 10; i++ {
		if _, err := eng.Select("orders", "amount", i*5_000, i*5_000+2_000); err != nil {
			log.Fatal(err)
		}
	}
	pieces, _, _ := eng.PieceStats("orders", "amount")
	fmt.Printf("after 10 queries: %d rows, %d pieces\n", orders.Rows(), pieces)

	// A day of trading: interleaved inserts, deletes and queries.
	inserted, deleted := 0, 0
	for i := 0; i < 2_000; i++ {
		switch i % 4 {
		case 0, 1: // two inserts
			if _, err := orders.InsertRow(int64(1 + (i*7919)%100_000)); err != nil {
				log.Fatal(err)
			}
			inserted++
		case 2: // one delete
			if ok, err := orders.DeleteWhere("amount", int64(1+(i*104729)%100_000)); err != nil {
				log.Fatal(err)
			} else if ok {
				deleted++
			}
		case 3: // one query: the index plus the updates still buffered in its range
			lo := int64((i * 31) % 95_000)
			if _, err := eng.Select("orders", "amount", lo, lo+5_000); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("stream done: +%d inserts, -%d deletes, live rows %d\n", inserted, deleted, orders.Rows())

	// Verify: a full-range query equals the live row count.
	res, err := eng.Select("orders", "amount", 0, 1<<40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full-range query sees %d rows (table reports %d) — consistent: %v\n",
		res.Count, orders.Rows(), res.Count == orders.Rows())
	pieces, avg, _ := eng.PieceStats("orders", "amount")
	fmt.Printf("physical state: %d pieces, avg piece %.0f values\n", pieces, avg)
}
