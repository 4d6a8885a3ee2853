package repro.core

import repro.SparkSpec
import repro.core.Model._
import repro.core.Signature._
import repro.graphgen.Datasets
import repro.workloads.Workloads

/** TPSTry++ construction tests (paper §2.2, Fig. 2/3).
  *
  * Computed supports are cross-checked against brute-force sub-graph
  * containment (NaiveIso) for several workloads.
  */
class TPSTrySpec extends SparkSpec {
  import QueryGraph._

  private def coder() = new LabelCoder(DefaultP, 42L)

  /** Full signature of a pattern. */
  private def sigOf(q: QueryGraph)(implicit c: LabelCoder): Sig = ofSubGraph(q.toSubGraph)

  /** The motif child of trie node `n` along `delta` through the index's
    * packed links, if `n` is a motif and the child is one.
    */
  private def motifChild(index: MotifIndex, n: TPSTry#Node, delta: Int): Option[TPSTry#Node] =
    Some(index.motifs.indexOf(n)).filter(_ >= 0)
      .map(index.child(_, delta)).filter(_ >= 0).map(index.motifs)

  /** The single-edge motif of an edge with labels `la`, `lb`, if any. */
  private def singleEdgeMotif(index: MotifIndex, la: String, lb: String): Option[TPSTry#Node] =
    Some(index.singleEdge(index.label(la), index.label(lb))).filter(_ >= 0).map(index.motifs)

  /** Brute-force support: total frequency of queries containing `g`. */
  private def bruteSupport(g: QueryGraph, w: Workload): Double =
    w.queries.collect { case (q, f) if NaiveIso.containedIn(g, q) => f }.sum / w.totalFrequency

  test("single query: trie contains every connected sub-graph exactly once") {
    implicit val c: LabelCoder = coder()
    val trie = new TPSTry
    trie.add(path("a", "b", "c"))
    // Connected sub-graphs: a-b, b-c, a-b-c -> 3 nodes.
    assert(trie.nodes.size == 3)
  }

  test("root children are the single-edge sub-graphs") {
    implicit val c: LabelCoder = coder()
    val trie = new TPSTry
    trie.add(path("a", "b", "c"))
    val rootSigs = trie.root.children.map(_._2.sig).toSet
    val ab = sigOf(singleEdge("a", "b"))
    val bc = sigOf(singleEdge("b", "c"))
    assert(rootSigs == Set(ab, bc))
  }

  test("triangle query: 3 single edges + 3 two-edge paths + 1 triangle") {
    implicit val c: LabelCoder = coder()
    val trie = new TPSTry
    trie.add(cycle("a", "b", "c"))
    // sub-graphs: {ab, bc, ca}, {ab+bc, bc+ca, ca+ab}, {triangle} = 7 distinct
    assert(trie.nodes.size == 7)
  }

  test("DAG merging: a-b-a-b cycle node is reachable from multiple parents") {
    implicit val c: LabelCoder = coder()
    val trie = new TPSTry
    val q1   = cycle("a", "b", "a", "b")
    trie.add(q1)
    val cycleSig  = sigOf(q1)
    val cycleNode = trie.node(cycleSig).get
    // Count trie nodes that link to the full cycle.
    val parents = trie.nodes.count(_.children.exists(_._2 eq cycleNode))
    assert(parents >= 1)
    // The 3-edge path b-a-b-a can extend to the cycle; both 3-edge shapes
    // (a-b-a-b path) are signature-identical here, so one parent suffices,
    // but the cycle node must exist and have support 1.
    assert(cycleNode.support == 1.0)
  }

  test("identical sub-graphs from different queries merge into one node (Fig. 3)") {
    implicit val c: LabelCoder = coder()
    val trie = new TPSTry
    trie.add(path("a", "b", "c"), 1.0) // contains a-b
    trie.add(path("c", "b", "a"), 1.0) // same graph, reversed construction
    val abNode = trie.node(sigOf(singleEdge("a", "b"))).get
    assert(abNode.support == 1.0, "both queries contain a-b: support = 2/2")
    assert(trie.nodes.size == 3, "reversed path adds no new nodes")
  }

  test("support is counted once per query even with multiple derivations") {
    implicit val c: LabelCoder = coder()
    val trie = new TPSTry
    // q1 has four a-b edges; the single-edge node a-b must have support 1, not 4.
    trie.add(cycle("a", "b", "a", "b"))
    val abNode = trie.node(sigOf(singleEdge("a", "b"))).get
    assert(abNode.support == 1.0)
  }

  test("supports match brute-force containment for a mixed workload") {
    implicit val c: LabelCoder = coder()
    val w = Workload(Vector(
      path("a", "b", "a")      -> 2.0,
      path("a", "b", "c")      -> 1.0,
      star("b", "a", "a", "c") -> 1.0,
    ))
    val trie = TPSTry.ofWorkload(w)
    trie.nodes.foreach { n =>
      val expected = bruteSupport(n.representative, w)
      assert(math.abs(n.support - expected) < 1e-9,
             s"node ${n.representative}: trie=${n.support} brute=$expected")
    }
  }

  test("support is antitone from parent to child") {
    implicit val c: LabelCoder = coder()
    val w = Workload(Vector(
      path("a", "b", "a")           -> 3.0,
      path("a", "b", "c", "a")      -> 2.0,
      cycle("a", "b", "c")          -> 1.0,
    ))
    val trie = TPSTry.ofWorkload(w)
    trie.nodes.foreach { n =>
      n.children.foreach { case (_, ch) =>
        assert(ch.support <= n.support + 1e-12,
               s"child ${ch.representative} support ${ch.support} exceeds parent ${n.support}")
      }
    }
  }

  test("motif filter keeps exactly the nodes at or above the threshold") {
    implicit val c: LabelCoder = coder()
    val w = Workload(Vector(
      path("a", "b")      -> 3.0,   // a-b support 1.0 (all queries contain it? no)
      path("a", "b", "c") -> 1.0,
      path("a", "b", "a") -> 1.0,
    ))
    val trie  = TPSTry.ofWorkload(w)
    val index = trie.motifIndex(0.4)
    val kept  = index.motifs.map(_.sig).toSet
    trie.nodes.foreach { n =>
      assert(kept.contains(n.sig) == (n.support >= 0.4))
    }
    // a-b occurs in every query: support 1.0 -> motif at any threshold.
    assert(kept.contains(sigOf(singleEdge("a", "b"))))
    // b-c occurs only in the second query: 1/5 of mass -> not a motif.
    assert(!kept.contains(sigOf(singleEdge("b", "c"))))
  }

  test("matchSingleEdge resolves stream edges to single-edge motifs") {
    implicit val c: LabelCoder = coder()
    val w     = Workload(Vector(path("a", "b", "a") -> 1.0))
    val index = TPSTry.ofWorkload(w).motifIndex(0.4)
    assert(singleEdgeMotif(index, "a", "b").map(_.sig) == Some(sigOf(singleEdge("a", "b"))))
    assert(singleEdgeMotif(index, "b", "a").map(_.sig) == Some(sigOf(singleEdge("a", "b"))))
    assert(singleEdgeMotif(index, "b", "c").isEmpty)
  }

  test("motifChild follows factor deltas to motif children only") {
    implicit val c: LabelCoder = coder()
    val w     = Workload(Vector(path("a", "b", "a") -> 1.0, singleEdge("a", "b") -> 1.0))
    val trie  = TPSTry.ofWorkload(w)
    val index = trie.motifIndex(0.4)
    val abNode = trie.node(sigOf(singleEdge("a", "b"))).get
    // Adding a second a to the b endpoint: delta for a-b-a.
    val g     = SubGraph.of(LEdge(1, "a", 2, "b"))
    val delta = fac(LEdge(3, "a", 2, "b"), g)
    val child = motifChild(index, abNode, delta)
    assert(child.isDefined)
    assert(child.get.sizeEdges == 2)
    // The coder's fac gives the same packed delta from the index's label ids.
    assert(index.coder.fac(index.label("a"), 0, index.label("b"), 1) == delta)
    // a-b-a has support 0.5 >= 0.4; at threshold 0.6 it must disappear.
    assert(motifChild(trie.motifIndex(0.6), abNode, delta).isEmpty)
  }

  test("incremental workload updates shift supports (evolving Q, §2)") {
    implicit val c: LabelCoder = coder()
    val trie = new TPSTry
    trie.add(path("a", "b", "c"), 1.0)
    val bc = trie.node(sigOf(singleEdge("b", "c"))).get
    assert(bc.support == 1.0)
    trie.add(path("a", "b", "a"), 3.0)
    assert(math.abs(bc.support - 0.25) < 1e-12, "b-c now in 1 of 4 mass units")
  }

  test("maxMotifEdges reflects the largest motif") {
    implicit val c: LabelCoder = coder()
    val w = Workload(Vector(path("a", "b", "c", "d") -> 1.0))
    assert(TPSTry.ofWorkload(w).motifIndex(0.4).maxMotifEdges == 3)
    val w2 = Workload(Vector(path("a", "b", "c", "d") -> 1.0, path("x", "y") -> 9.0))
    // The 3-edge path has support 0.1 < 0.4: only x-y (and the path's single
    // edges are 0.1 too) remain; largest motif is 1 edge.
    assert(TPSTry.ofWorkload(w2).motifIndex(0.4).maxMotifEdges == 1)
  }

  test("trie growth is bounded for realistic query sizes (compactness, §2)") {
    implicit val c: LabelCoder = coder()
    val trie = new TPSTry
    trie.add(cycle("a", "b", "c", "d", "e", "f"))
    // A 6-cycle has 6 + 6*(5..1 chains) + 1 connected sub-graphs = 6*5+1 = 31
    // minus signature merges; just assert it stays small and finite.
    assert(trie.nodes.size <= 31)
    assert(trie.nodes.size >= 6)
  }

  test("fac along every connected edge order reaches each query's trie node") {
    Datasets.queryable.foreach { d =>
      implicit val c: LabelCoder = coder()
      val w    = Workloads.forDataset(d.name)
      val trie = TPSTry.ofWorkload(w)
      w.queries.foreach { case (q, _) =>
        val target = trie.node(sigOf(q))
        assert(target.isDefined, s"${d.name}: no node for $q")
        val orders = q.dataEdges.permutations.filter { es =>
          es.indices.forall(i => SubGraph(es.take(i).toSet).incident(es(i)))
        }.toVector
        assert(orders.nonEmpty)
        orders.foreach { es =>
          // Alg. 2's walk: from the root, follow the delta each edge adds.
          val (_, reached) = es.foldLeft((SubGraph.empty, Option(trie.root))) {
            case ((g, n), e) => (g + e, n.flatMap(_.child(fac(e, g))))
          }
          assert(reached == target, s"${d.name}: order $es of $q")
        }
      }
    }
  }

  test("packed child lookups equal child(sig) on every trie link of the four workloads") {
    Datasets.queryable.foreach { d =>
      implicit val c: LabelCoder = coder()
      val trie  = TPSTry.ofWorkload(Workloads.forDataset(d.name))
      val index = trie.motifIndex(0.4)
      val links = trie.nodes.flatMap(n => n.children.map { case (delta, ch) => (n, delta, ch) })
      assert(links.nonEmpty)
      links.foreach { case (n, delta, ch) =>
        assert(Sig.ofPacked(delta).factors.forall(f => f >= 1 && f <= c.p),
               s"${d.name}: a trie delta packs 3 factors in [1, p]: $delta")
        assert(motifChild(index, n, delta) == Some(ch).filter(_.support >= 0.4),
               s"${d.name}: link $delta from $n")
        assert(n.child(delta).contains(ch))
      }
      // The root's links resolve each label pair's single-edge motif, in
      // either orientation.
      trie.root.children.foreach { case (_, ch) =>
        val Vector(a, b) = ch.representative.labels
        assert(singleEdgeMotif(index, a, b) == Some(ch).filter(_.support >= 0.4), s"${d.name}: $ch")
        assert(singleEdgeMotif(index, b, a) == Some(ch).filter(_.support >= 0.4), s"${d.name}: $ch")
      }
    }
  }

  test("packing rejects p >= 256 and round-trips three factors in [1, 255]") {
    // At p = 256 a factor can be 256, which does not fit its byte.
    Seq(256, 257).foreach { p =>
      val err = intercept[IllegalArgumentException](new LabelCoder(p, 42L))
      assert(err.getMessage.contains("p < 256"), err.getMessage)
    }
    assert(new LabelCoder(255, 42L).p == 255)
    // Sig.ofPacked inverts packing, so packing is injective on factor
    // multisets: the trie's Int-keyed links rely on that.
    val rnd = new scala.util.Random(3)
    val samples = Vector((1, 1, 1), (255, 255, 255), (1, 255, 128)) ++
      Vector.fill(20000)((1 + rnd.nextInt(255), 1 + rnd.nextInt(255), 1 + rnd.nextInt(255)))
    samples.foreach { case (a, b, c) =>
      assert(Sig.ofPacked(packed(a, b, c)) == Sig.of(a, b, c), s"($a, $b, $c)")
    }
    assert(packed(3, 1, 2) == packed(2, 3, 1))
  }
}
