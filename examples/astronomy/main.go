// Astronomy: the paper's motivating scenario (§1). A sky-survey table takes
// a daily data load; scientists always run a standard set of queries on
// right ascension (ra) — a-priori knowledge worth seeding — and then explore
// declination and magnitude unpredictably. Holistic indexing seeds the known
// pattern, exploits the pre-observation idle window, adapts to the
// exploration, and uses every pause between query bursts.
package main

import (
	"fmt"
	"log"
	"time"

	"holistic"
)

const (
	rows   = 1_000_000
	raMax  = 360_000 // milli-degrees of right ascension
	decMax = 180_000 // milli-degrees of declination (shifted)
	magMax = 30_000  // milli-magnitudes
)

func main() {
	eng := holistic.New(holistic.Config{
		Strategy:        holistic.StrategyHolistic,
		Seed:            2,
		TargetPieceSize: 1 << 12,
	})
	defer eng.Close()

	sky, err := eng.CreateTable("sky")
	if err != nil {
		log.Fatal(err)
	}
	must(sky.AddColumnFromSlice("ra", holistic.GenerateUniform(11, rows, 0, raMax)))
	must(sky.AddColumnFromSlice("dec", holistic.GenerateUniform(12, rows, 0, decMax)))
	must(sky.AddColumnFromSlice("mag", holistic.GenerateUniform(13, rows, 0, magMax)))

	// The survey team always queries right ascension first: seed that
	// knowledge so the pre-observation idle window refines ra.
	must(eng.SeedWorkloadHint("sky", "ra", 50))
	actions, _ := eng.IdleActions(300)
	pRA, _, _ := eng.PieceStats("sky", "ra")
	pDec, _, _ := eng.PieceStats("sky", "dec")
	fmt.Printf("before first light: %d idle refinements -> ra has %d pieces, dec has %d\n",
		actions, pRA, pDec)

	// Standard nightly queries on the known strip.
	fmt.Println("\n-- standard survey queries (known pattern, pre-refined) --")
	total := time.Duration(0)
	for i := 0; i < 10; i++ {
		lo := int64(100_000 + i*2_000)
		res, err := eng.Select("sky", "ra", lo, lo+2_000)
		if err != nil {
			log.Fatal(err)
		}
		total += res.Elapsed
		if i < 3 {
			fmt.Printf("ra strip [%d,%d): %d stars in %v\n", lo, lo+2_000, res.Count, res.Elapsed)
		}
	}
	fmt.Printf("10 standard queries in %v\n", total)

	// Exploration: unpredictable ranges on dec and mag — pure adaptation.
	fmt.Println("\n-- exploratory queries (no a-priori knowledge) --")
	dec := holistic.NewUniformWorkload("sky", "dec", 0, decMax, 0.01, 21)
	mag := holistic.NewUniformWorkload("sky", "mag", 0, magMax, 0.02, 22)
	expl := holistic.NewRoundRobinWorkload(dec, mag)
	total = 0
	for i := 0; i < 20; i++ {
		q := expl.Next()
		res, err := eng.Select(q.Table, q.Column, q.Lo, q.Hi)
		if err != nil {
			log.Fatal(err)
		}
		total += res.Elapsed
	}
	fmt.Printf("20 exploratory queries in %v\n", total)

	// A pause between observation runs: the tuner now knows dec and mag
	// matter and spreads refinements by observed frequency.
	eng.IdleActions(400)
	pDec, _, _ = eng.PieceStats("sky", "dec")
	pMag, _, _ := eng.PieceStats("sky", "mag")
	fmt.Printf("\nafter an idle pause: dec has %d pieces, mag has %d\n", pDec, pMag)

	total = 0
	for i := 0; i < 20; i++ {
		q := expl.Next()
		res, err := eng.Select(q.Table, q.Column, q.Lo, q.Hi)
		if err != nil {
			log.Fatal(err)
		}
		total += res.Elapsed
	}
	fmt.Printf("the same exploration after the pause: %v\n", total)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
