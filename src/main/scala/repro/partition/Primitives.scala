package repro.partition

import java.util.Arrays
import repro.core.Model.VId

/** Open-addressing hash map from `Long` keys to non-negative `Int` values:
  * linear probing over a power-of-two table kept at most half full, and
  * backward-shift deletion, so no tombstones build up. No boxing.
  */
final class LongIntMap {
  private var keys  = new Array[Long](16)
  private var vals  = Array.fill(16)(-1) // -1 marks an empty slot
  private var mask  = 15
  private var count = 0

  def size: Int = count

  private def home(k: Long): Int = {
    var h = k * 0x9E3779B97F4A7C15L
    h ^= h >>> 29
    h *= 0xBF58476D1CE4E5B9L
    (h ^ (h >>> 32)).toInt & mask
  }

  private def slotOf(k: Long): Int = {
    var i = home(k)
    while (vals(i) >= 0 && keys(i) != k) i = (i + 1) & mask
    i
  }

  /** The value of `k`, or -1 if `k` is absent. */
  def get(k: Long): Int = vals(slotOf(k))

  def put(k: Long, v: Int): Unit = {
    require(v >= 0, "LongIntMap values are non-negative")
    if (2 * (count + 1) > vals.length) grow()
    val i = slotOf(k)
    if (vals(i) < 0) count += 1
    keys(i) = k
    vals(i) = v
  }

  def remove(k: Long): Unit = {
    var i = slotOf(k)
    if (vals(i) >= 0) {
      count -= 1
      // Shift later entries of the probe run back into the hole, unless
      // their home lies cyclically in (hole, entry].
      var j = i
      var done = false
      while (!done) {
        j = (j + 1) & mask
        if (vals(j) < 0) done = true
        else {
          val h = home(keys(j))
          val stays = if (i <= j) i < h && h <= j else i < h || h <= j
          if (!stays) { keys(i) = keys(j); vals(i) = vals(j); i = j }
        }
      }
      vals(i) = -1
    }
  }

  private def grow(): Unit = {
    val (ks, vs) = (keys, vals)
    keys = new Array[Long](ks.length * 2)
    vals = Array.fill(vs.length * 2)(-1)
    mask = vals.length - 1
    count = 0
    var i = 0
    while (i < vs.length) { if (vs(i) >= 0) put(ks(i), vs(i)); i += 1 }
  }
}

/** Dense vertex ids: the i-th distinct external id seen gets id i. */
final class VertexIds {
  private val index    = new LongIntMap
  private var externals = new Array[Long](16)

  /** Number of vertices seen. */
  def size: Int = index.size

  /** Dense id of `v`, assigned on first sight. */
  def id(v: VId): Int = {
    val d = index.get(v)
    if (d >= 0) d
    else {
      val n = index.size
      if (n == externals.length) externals = Arrays.copyOf(externals, 2 * n)
      externals(n) = v
      index.put(v, n)
      n
    }
  }

  /** Dense id of `v`, or -1 if it has not been seen. */
  def find(v: VId): Int = index.get(v)

  /** External id of dense id `d`. */
  def external(d: Int): VId = externals(d)
}

/** A growable `Int` array. */
final class IntBuffer {
  private var data   = new Array[Int](16)
  private var length = 0

  def size: Int             = length
  def apply(i: Int): Int    = data(i)
  def clear(): Unit         = length = 0
  def +=(x: Int): Unit = {
    if (length == data.length) data = Arrays.copyOf(data, 2 * length)
    data(length) = x
    length += 1
  }
}

/** Growable `Int` lists, one per slot (a dense vertex id, say). */
final class IntLists {
  private var lists = new Array[Array[Int]](16)
  private var lens  = new Array[Int](16)

  def length(s: Int): Int = if (s < lens.length) lens(s) else 0

  /** The backing array of slot `s`; its first `length(s)` entries are the list. */
  def array(s: Int): Array[Int] = lists(s)

  private def ensureSlot(s: Int): Unit = if (s >= lens.length) {
    val n = math.max(2 * lens.length, s + 1)
    lists = Arrays.copyOf(lists, n)
    lens = Arrays.copyOf(lens, n)
  }

  def append(s: Int, x: Int): Unit = {
    ensureSlot(s)
    val a = lists(s)
    if (a == null) lists(s) = new Array[Int](4)
    else if (lens(s) == a.length) lists(s) = Arrays.copyOf(a, 2 * a.length)
    lists(s)(lens(s)) = x
    lens(s) += 1
  }

  /** Empty slot `s`, keeping its array for reuse. */
  def clear(s: Int): Unit = if (s < lens.length) lens(s) = 0

  /** Move slot `t` of `from` into slot `s` of this. */
  def adopt(s: Int, from: IntLists, t: Int): Unit = if (t < from.lens.length) {
    ensureSlot(s)
    lists(s) = from.lists(t)
    lens(s) = from.lens(t)
  }

  /** Drop the entries of slot `s` that `keep` rejects, keeping order. */
  def retain(s: Int, keep: Int => Boolean): Unit = if (s < lens.length) {
    val a = lists(s)
    var n = 0
    var i = 0
    while (i < lens(s)) { if (keep(a(i))) { a(n) = a(i); n += 1 }; i += 1 }
    lens(s) = n
  }

  /** Append to a list whose dead entries are dropped lazily: a full list is
    * first cleared of what `keep` rejects, and still doubles if that left it
    * more than half full, so each entry is scanned O(1) times amortised.
    */
  def appendLive(s: Int, x: Int, keep: Int => Boolean): Unit = {
    if (s < lens.length && lists(s) != null && lens(s) == lists(s).length) {
      retain(s, keep)
      if (2 * lens(s) > lists(s).length) lists(s) = Arrays.copyOf(lists(s), 2 * lists(s).length)
    }
    append(s, x)
  }
}
