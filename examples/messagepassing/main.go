// Example: the LOCAL model substrate itself — vertex programs as
// goroutines exchanging messages over the graph.
//
//	go run ./examples/messagepassing
//
// Everything else in this repository simulates LOCAL algorithms through a
// ball-gathering oracle with round accounting. This example shows the
// other half of the substrate: ldd.ElkinNeimanDistributed runs the Lemma
// C.1 decomposition as an honest synchronous message-passing protocol on
// internal/local's engine (one vertex program per vertex, goroutine
// workers between round barriers), and its output is bit-identical to the
// oracle implementation given the same seed. The engine also audits
// message sizes: when several sources' labels ride in one round's batch the
// protocol exceeds the O(log n)-bit CONGEST budget, correctly classifying
// it as a LOCAL-model protocol.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/graph/gen"
	"repro/internal/ldd"
)

func main() {
	ctx := context.Background()
	g := gen.Torus(14, 14)
	p := ldd.ENParams{Lambda: 0.25, Seed: 99}

	oracle, _ := ldd.ElkinNeimanCtx(ctx, g, nil, p, nil)
	dist, stats, err := ldd.ElkinNeimanDistributed(g, p, false /* parallel executor */)
	if err != nil {
		log.Fatal(err)
	}

	same := true
	for v := range oracle.ClusterOf {
		if oracle.ClusterOf[v] != dist.ClusterOf[v] {
			same = false
			break
		}
	}
	fmt.Printf("network: %v\n", g)
	fmt.Printf("oracle:      %d clusters, %d unclustered, %d rounds (charged)\n",
		oracle.NumClusters, oracle.UnclusteredCount(), oracle.Rounds)
	fmt.Printf("distributed: %d clusters, %d unclustered, %d rounds (executed)\n",
		dist.NumClusters, dist.UnclusteredCount(), dist.Rounds)
	fmt.Printf("outputs bit-identical: %v\n", same)
	fmt.Printf("engine stats: %d messages delivered, max message %d bits, fits CONGEST: %v\n",
		stats.Messages, stats.MaxMessageBits, stats.CongestOK)
	fmt.Println()
	fmt.Println("the same protocol on a clique (the within-1 window prunes almost every label,")
	fmt.Println("so the batches stay small there):")
	k := gen.Complete(60)
	_, kstats, err := ldd.ElkinNeimanDistributed(k, p, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine stats: %d messages, max message %d bits, fits CONGEST: %v\n",
		kstats.Messages, kstats.MaxMessageBits, kstats.CongestOK)
}
