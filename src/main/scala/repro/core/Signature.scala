package repro.core

import scala.util.Random
import repro.core.Model._

/** Number-theoretic graph signatures (paper §2.1–§2.3, after Song et al.).
  *
  * Each label l gets a random value r(l) ∈ [1, p). A graph's signature is a
  * **multiset of factors**: one edge factor per edge and one degree factor per
  * unit of vertex degree. Per §2.3 we never materialise the big-integer
  * product — representing signatures as factor multisets distinguishes e.g.
  * {6,2} from {4,3} from {12}, eliminating one source of collisions.
  *
  * Isomorphic graphs always produce identical factor multisets (same labelled
  * edge multiset + same labelled degree sequence), so there are no false
  * negatives; non-isomorphic graphs may collide with small probability.
  */
object Signature {

  /** Default prime modulus; the paper uses p = 251 (§2.3, Fig. 4). */
  val DefaultP: Int = 251

  /** A signature: a canonical (sorted) multiset of integer factors.
    *
    * Sorted by construction: the class is abstract and sealed, so no `apply`
    * or `copy` exists and only [[Sig.of]] and `++` build one.
    */
  sealed abstract case class Sig(factors: Vector[Int]) {
    def size: Int = factors.size

    /** Multiset union with another signature / factor delta. */
    def ++(that: Sig): Sig = Sig.of(factors ++ that.factors)
  }

  object Sig {
    val empty: Sig                    = of(Vector.empty[Int])
    def of(fs: Iterable[Int]): Sig    = new Sig(fs.toVector.sorted) {}
    def of(fs: Int*): Sig             = of(fs.toVector)
  }

  /** The one label table: interns each label to an id 0, 1, 2, … in
    * first-use order and assigns it a distinct pseudo-random value
    * r(l) = `pool(id)` ∈ [1, p), where the pool is a seeded shuffle of
    * [1, p).
    *
    * A given (p, seed) and registration order give the same values
    * everywhere, so trie construction and stream matching agree. Loom
    * registers the workload's labels while it builds the trie, then each
    * stream label on first use (u before v); callers that need cross-JVM
    * stability should register labels in a fixed order first. The stream
    * matcher's labels are these ids, and [[MotifIndex.fac]] takes its
    * factors from here. Not thread-safe: each Loom builds its own coder.
    */
  final class LabelCoder(val p: Int = DefaultP, seed: Long = 42L) {
    require(p >= 2, "p must be at least 2")
    private val pool = new Random(seed).shuffle((1 until p).toVector).toArray
    private val ids  = scala.collection.mutable.HashMap.empty[String, Int]

    /** Id of label l (registered on first use). */
    def id(label: String): Int =
      ids.getOrElseUpdate(label, {
        require(ids.size < pool.length, s"more labels than available values in [1,$p)")
        ids.size
      })

    /** Number of labels registered so far: their ids are 0 until size. */
    def size: Int = ids.size

    /** r(l): the random value for label l (registered on first use). */
    def r(label: String): Int = pool(id(label))

    /** [[Signature.edgeFactor]] of the labels with ids a and b. */
    def edgeFactor(a: Int, b: Int): Int = nonZero(math.abs(pool(a) - pool(b)), p)

    /** [[Signature.degreeFactor]] of the label with id a. */
    def degreeFactor(a: Int, k: Int): Int = {
      require(k >= 1, "degree factors start at k = 1")
      nonZero(pool(a) + k, p)
    }
  }

  /** Map x into [1, p]: the paper does not consider 0 a valid factor and
    * replaces it with p (footnote 3: 11 mod 11 = 11).
    */
  private def nonZero(x: Int, p: Int): Int = {
    val m = ((x % p) + p) % p
    if (m == 0) p else m
  }

  /** Edge factor for an edge between labels la and lb.
    *
    * The paper's formula has a typo (subtracts a value from itself); its
    * worked example computes (r(b) − r(a)) mod 11 = 7 for r(a)=3, r(b)=10, so
    * we use the order-normalised difference, which is symmetric as required
    * for undirected edges.
    */
  def edgeFactor(la: String, lb: String)(implicit coder: LabelCoder): Int =
    coder.edgeFactor(coder.id(la), coder.id(lb))

  /** The k-th degree factor for a vertex with label l: (r(l) + k) mod p.
    *
    * A vertex of degree n contributes factors for k = 1..n; raising a degree
    * from n−1 to n adds exactly `degreeFactor(l, n)`.
    */
  def degreeFactor(l: String, k: Int)(implicit coder: LabelCoder): Int =
    coder.degreeFactor(coder.id(l), k)

  /** Factors added to sub-graph g's signature by adding edge e (paper's
    * fac(e, g)): one edge factor plus one new degree factor per endpoint.
    */
  def fac(e: LEdge, g: SubGraph)(implicit coder: LabelCoder): Sig =
    Sig.of(
      edgeFactor(e.uLabel, e.vLabel),
      degreeFactor(e.uLabel, g.degree(e.u) + 1),
      degreeFactor(e.vLabel, g.degree(e.v) + 1)
    )

  /** Full signature of a concrete sub-graph: [[fac]] folded over its edges.
    * Every vertex of degree n collects degree factors 1..n whatever the edge
    * order, so the result does not depend on it.
    */
  def ofSubGraph(g: SubGraph)(implicit coder: LabelCoder): Sig =
    g.edges.foldLeft((SubGraph.empty, Sig.empty)) { case ((h, sig), e) =>
      (h + e, sig ++ fac(e, h))
    }._2

  /** Largest factor a packed delta can hold: 8 bits per factor. */
  val MaxPackedFactor: Int = 255

  /** A three-factor delta packed into the low 24 bits of an `Int`, sorted
    * ascending from the high byte down, so equal deltas pack equally. Every
    * fac(e, g) has exactly three factors in [1, p]; with p ≤ 255 (the
    * paper's p = 251) each fits in a byte.
    */
  def packed(a: Int, b: Int, c: Int): Int = {
    // Sort three values with three compare-and-swaps.
    var x = a; var y = b; var z = c
    if (x > y) { val t = x; x = y; y = t }
    if (y > z) { val t = y; y = z; z = t }
    if (x > y) { val t = x; x = y; y = t }
    (x << 16) | (y << 8) | z
  }

  /** [[packed]] form of a factor delta from [[fac]]. */
  def packed(delta: Sig): Int = {
    require(delta.size == 3, s"a packed delta has exactly 3 factors, got ${delta.factors}")
    require(delta.factors.forall(f => f >= 1 && f <= MaxPackedFactor),
            s"packed factors lie in [1, $MaxPackedFactor], got ${delta.factors}")
    packed(delta.factors(0), delta.factors(1), delta.factors(2))
  }
}
