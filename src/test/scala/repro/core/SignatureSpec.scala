package repro.core

import org.scalacheck.Gen
import repro.{GenDriven, SparkSpec}
import repro.core.Model._
import repro.core.Signature._

/** A deterministic coder exposing the paper's §2.1 worked example:
  * p = 11, r(a) = 3, r(b) = 10.
  */
object PaperCoder {
  def make(): LabelCoder = {
    // Find a seed-independent way to pin r(a)=3, r(b)=10: search seeds.
    Iterator.from(0)
      .map(s => new LabelCoder(11, s.toLong))
      .find { c => c.r("a") == 3 && c.r("b") == 10 }
      .get
  }
}

class SignatureSpec extends SparkSpec with GenDriven {

  private def freshCoder(p: Int = DefaultP, seed: Long = 42L) = new LabelCoder(p, seed)

  /** The big-integer product of a signature's factors (paper §2.1's
    * "signature"), which Loom itself never materialises (§2.3).
    */
  private def product(s: Sig): BigInt = s.factors.foldLeft(BigInt(1))(_ * _)

  /** The coder's edge and degree factors by label, registering the labels. */
  private def edgeFactor(la: String, lb: String)(implicit c: LabelCoder): Int =
    c.edgeFactor(c.id(la), c.id(lb))
  private def degreeFactor(l: String, k: Int)(implicit c: LabelCoder): Int =
    c.degreeFactor(c.id(l), k)

  // ---------- paper §2.1 worked example (p = 11, r(a)=3, r(b)=10) ----------

  test("paper example: edge factor of an a-b edge is 7") {
    implicit val c: LabelCoder = PaperCoder.make()
    assert(edgeFactor("a", "b") == 7)
    assert(edgeFactor("b", "a") == 7, "edge factors must be symmetric")
  }

  test("paper example: degree factors of b are 11 and 1 (0 replaced by p)") {
    implicit val c: LabelCoder = PaperCoder.make()
    assert(degreeFactor("b", 1) == 11) // (10+1) mod 11 = 0 -> p
    assert(degreeFactor("b", 2) == 1)  // (10+2) mod 11 = 1
  }

  test("paper example: degree factors of a are 4 and 5") {
    implicit val c: LabelCoder = PaperCoder.make()
    assert(degreeFactor("a", 1) == 4)
    assert(degreeFactor("a", 2) == 5)
  }

  test("paper example: signature of a single a-b edge has product 308") {
    implicit val c: LabelCoder = PaperCoder.make()
    val e = LEdge(1, "a", 2, "b")
    assert(product(Sig.ofPacked(fac(e, SubGraph.empty))) == BigInt(308)) // 7 * 4 * 11
  }

  test("paper example: signature of q1 (a-b-a-b 4-cycle) has product 116208400") {
    implicit val c: LabelCoder = PaperCoder.make()
    val q1 = QueryGraph.cycle("a", "b", "a", "b")
    assert(product(ofSubGraph(q1.toSubGraph)) == BigInt(116208400L)) // 2401 * 48400
  }

  test("paper example: adding an a-b edge to a-b yields a-b-a with product 8624") {
    implicit val c: LabelCoder = PaperCoder.make()
    val e1 = LEdge(1, "a", 2, "b")
    val e2 = LEdge(3, "a", 2, "b")
    val g  = SubGraph.of(e1)
    val d  = Sig.ofPacked(fac(e2, g))
    assert(d == Sig.of(7, 4, 1), s"delta factors should be {7,4,1}, got $d")
    assert(product(ofSubGraph(g) ++ d) == BigInt(8624)) // 308 * 7 * 4 * 1
  }

  // ---------- Sig algebra ----------

  test("Sig.of sorts factors canonically") {
    assert(Sig.of(5, 2, 9, 2).factors == Vector(2, 2, 5, 9))
  }

  test("Sig ++ is a multiset union") {
    assert((Sig.of(2, 5) ++ Sig.of(2, 7)) == Sig.of(2, 2, 5, 7))
  }

  test("Sig distinguishes {6,2} from {4,3} from {12} (paper §2.3)") {
    assert(Sig.of(6, 2) != Sig.of(4, 3))
    assert(Sig.of(6, 2) != Sig.of(12))
    assert(Sig.of(4, 3) != Sig.of(12))
    assert(product(Sig.of(6, 2)) == product(Sig.of(4, 3))) // products collide...
    assert(product(Sig.of(6, 2)) == product(Sig.of(12)))    // ...multisets don't
  }

  test("Sig requires sorted factors") {
    // Only Sig.of and ++ build a Sig, so an unsorted one cannot be written.
    assertCompiles("Sig.of(Vector(3, 1))")
    assertDoesNotCompile("Sig(Vector(3, 1))")
    assertDoesNotCompile("Sig.of(1, 3).copy(factors = Vector(3, 1))")
  }

  // ---------- LabelCoder ----------

  test("LabelCoder assigns distinct values in [1, p)") {
    val c  = freshCoder()
    val vs = ('a' to 'z').map(l => c.r(l.toString))
    assert(vs.distinct.size == vs.size)
    assert(vs.forall(v => v >= 1 && v < c.p))
  }

  test("LabelCoder is deterministic in (p, seed) and registration order") {
    val c1 = freshCoder(seed = 5)
    val c2 = freshCoder(seed = 5)
    Seq("x", "y", "z").foreach { l => assert(c1.r(l) == c2.r(l)) }
  }

  test("LabelCoder rejects more labels than values") {
    val c = new LabelCoder(3, 0)
    c.r("a"); c.r("b")
    intercept[IllegalArgumentException] { c.r("c") }
  }

  test("LabelCoder.find looks a label up without registering it") {
    val c = freshCoder()
    assert(c.find("a") == -1 && c.size == 0)
    val a = c.id("a")
    assert(c.find("a") == a && c.find("b") == -1 && c.size == 1)
  }

  // ---------- factor ranges ----------

  test("edge and degree factors always land in [1, p]") {
    implicit val c: LabelCoder = freshCoder()
    for (l1 <- Seq("a", "b", "c", "d"); l2 <- Seq("a", "b", "c", "d"); k <- 1 to 10) {
      val ef = edgeFactor(l1, l2)
      val df = degreeFactor(l1, k)
      assert(ef >= 1 && ef <= c.p, s"edgeFactor($l1,$l2)=$ef")
      assert(df >= 1 && df <= c.p, s"degreeFactor($l1,$k)=$df")
    }
  }

  test("same-label edge factor is p (0 is not a valid factor)") {
    implicit val c: LabelCoder = freshCoder()
    assert(edgeFactor("a", "a") == c.p)
  }

  // ---------- incremental consistency ----------

  private val labelGen = Gen.oneOf("a", "b", "c", "d")

  /** Random small connected sub-graph built edge-by-edge. */
  private def connectedSubGraphGen: Gen[List[LEdge]] =
    for {
      n      <- Gen.choose(1, 7)
      labels <- Gen.listOfN(n + 1, labelGen)
      // attach vertex i+1 to a random previous vertex (tree) ...
      parents <- Gen.sequence[List[Int], Int]((1 to n).map(i => Gen.choose(0, i - 1)).toList)
    } yield parents.zipWithIndex.map { case (p, i) =>
      LEdge(p.toLong, labels(p), (i + 1).toLong, labels(i + 1))
    }

  test("property: incremental fac() composes to the full sub-graph signature") {
    implicit val c: LabelCoder = freshCoder()
    forAllG(connectedSubGraphGen) { es =>
      val incremental = es.foldLeft((SubGraph.empty, Sig.empty)) {
        case ((g, sig), e) => (g + e, sig ++ Sig.ofPacked(fac(e, g)))
      }._2
      assert(incremental == ofSubGraph(SubGraph(es.toSet)))
    }
  }

  test("property: signature is invariant under edge insertion order") {
    implicit val c: LabelCoder = freshCoder()
    forAllG(connectedSubGraphGen) { es =>
      val s1 = ofSubGraph(SubGraph(es.toSet))
      val s2 = ofSubGraph(SubGraph(es.reverse.toSet))
      assert(s1 == s2)
    }
  }

  test("property: isomorphic graphs always share a signature (no false negatives)") {
    implicit val c: LabelCoder = freshCoder()
    forAllG(connectedSubGraphGen.flatMap(es =>
        Gen.choose(1000L, 100000L).map(off => (es, off)))) { case (es, offset) =>
      val g1 = SubGraph(es.toSet)
      // Relabel vertex ids by a strictly monotone map: trivially isomorphic.
      val g2 = SubGraph(es.map(e => e.copy(u = e.u + offset, v = e.v + offset)).toSet)
      assert(ofSubGraph(g1) == ofSubGraph(g2))
    }
  }

  // A pattern is signed through its data edges (ids 0..n-1): its full signature
  // is ofSubGraph(q.toSubGraph) and its deltas are fac along q.dataEdges.

  test("ofQueryGraph and ofSubGraph agree on the same shape") {
    implicit val c: LabelCoder = freshCoder()
    val q = QueryGraph.path("a", "b", "c")
    val g = SubGraph.of(LEdge(10, "a", 20, "b"), LEdge(20, "b", 30, "c"))
    assert(ofSubGraph(q.toSubGraph) == ofSubGraph(g))
  }

  test("facPattern mirrors fac on the concrete graph") {
    implicit val c: LabelCoder = freshCoder()
    val q = QueryGraph.path("a", "b", "c", "a")
    // Build the concrete twin of q under other vertex ids.
    val edges = q.dataEdges.map(e => e.copy(u = e.u + 100, v = e.v + 100))
    var havePat = SubGraph.empty
    var haveSub = SubGraph.empty
    q.dataEdges.indices.foreach { i =>
      assert(fac(q.dataEdges(i), havePat) == fac(edges(i), haveSub))
      havePat += q.dataEdges(i); haveSub += edges(i)
    }
  }

  test("measured false-positive rate of signatures is low on random non-isomorphic pairs") {
    implicit val c: LabelCoder = freshCoder()
    val rnd = new scala.util.Random(1)
    var collisions = 0
    var trials     = 0
    (1 to 300).foreach { _ =>
      def randomGraph(): SubGraph = {
        val n  = 3 + rnd.nextInt(4)
        val ls = Vector.fill(n + 1)(Seq("a", "b", "c")(rnd.nextInt(3)))
        SubGraph((1 to n).map { i =>
          val p = rnd.nextInt(i)
          LEdge(p.toLong, ls(p), i.toLong, ls(i))
        }.toSet)
      }
      val (g1, g2) = (randomGraph(), randomGraph())
      if (!NaiveIso.isomorphic(g1.toQueryGraph, g2.toQueryGraph)) {
        trials += 1
        if (ofSubGraph(g1) == ofSubGraph(g2)) collisions += 1
      }
    }
    assert(trials > 50, "generator should produce mostly non-isomorphic pairs")
    // Trees with the same labelled degree sequence can legitimately collide;
    // the paper only requires the rate to be small.
    assert(collisions.toDouble / trials < 0.15,
           s"false-positive rate too high: $collisions/$trials")
  }
}
