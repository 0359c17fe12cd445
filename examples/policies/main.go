// Command policies compares the three block placement policies of Section 4.2 —
// organ-pipe, interleaved, and serial — on the same workload, using the
// public facade directly (no experiment harness): it shows how to drive
// the analyzer and arranger by hand.
package main

import (
	"fmt"
	"log"

	repro "repro"
	"repro/internal/fs"
	"repro/internal/seek"
	"repro/internal/sim"
)

// run builds a server with the given placement policy, trains it on one
// round of skewed traffic, rearranges, and measures a second round.
func run(policy string) (seekMS, zeroPct float64) {
	srv, err := repro.NewServer(repro.ServerConfig{
		DiskModel: "toshiba",
		Policy:    policy,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Sequentially-related files, so the interleaved policy's successor
	// chains have something to find.
	var handles []*fs.Handle
	for i := 0; i < 150; i++ {
		srv.FS.Create(fmt.Sprintf("/f%03d", i), func(ino fs.Ino, err error) {
			if err != nil {
				log.Fatal(err)
			}
			h, _ := srv.FS.OpenIno(ino)
			h.WriteAt(0, 6, nil)
			handles = append(handles, h)
		})
	}
	srv.RunFor(60_000)

	rnd := sim.NewRand(7)
	zipf := sim.NewZipf(len(handles), 1.5)
	round := func() {
		for i := 0; i < 4000; i++ {
			h := handles[zipf.Rank(rnd)]
			srv.Eng.After(float64(i)*60, func() {
				h.ReadAt(0, h.SizeBlocks(), nil)
			})
		}
		srv.RunFor(4000*60 + 60_000)
	}

	srv.StartMonitoring()
	round() // train
	srv.StopMonitoring()
	if _, err := srv.Rearrange(); err != nil {
		log.Fatal(err)
	}
	srv.Stats() // clear
	round()     // measure
	side := srv.Stats().All()
	return side.MeanSeekMS(seek.ToshibaMK156F), side.SchedDist.ZeroFrac() * 100
}

func main() {
	fmt.Println("placement policy comparison (Toshiba, skewed read workload)")
	fmt.Println("policy        mean seek (ms)   zero-length seeks")
	for _, p := range []string{"organ-pipe", "interleaved", "serial"} {
		s, z := run(p)
		fmt.Printf("%-12s  %14.2f   %16.0f%%\n", p, s, z)
	}
	fmt.Println("\npaper (Table 7): organ-pipe and interleaved comparable; serial worse.")
}
