package repro

import org.scalacheck.{Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.core.model.Event
import repro.core.query.JexlLite
import repro.core.engine.TaskProcessor

import java.nio.file.{Files, Path}

/** Shared helpers for the suites: ScalaCheck bridge, temp dirs, and a
  * brute-force sliding-window oracle for the engine implementations.
  */
object TestKit {

  /** Runs a ScalaCheck property and fails the ScalaTest assertion if it
    * does not pass (no scalatestplus bridge in the offline jar set). The
    * seed is drawn here and reported on failure, with the shrunk and the
    * original arguments, so the run can be replayed by passing
    * `Seed.fromBase64(reported).get` to `withInitialSeed`.
    */
  def checkProp(prop: Prop, minSuccessful: Int = 60): Unit = {
    val seed = Seed.random()
    val params = SCTest.Parameters.default.withMinSuccessfulTests(minSuccessful).withInitialSeed(seed)
    val result = SCTest.check(params, prop)
    assert(result.passed, s"property failed with seed ${seed.toBase64}: ${describe(result.status)}")
  }

  private def describe(status: SCTest.Status): String = {
    def args(as: List[Prop.Arg[Any]]): String = as.zipWithIndex.map { case (a, i) =>
      val label = if (a.label.isEmpty) s"ARG_$i" else a.label
      s"$label: shrunk=${a.arg} original=${a.origArg} (${a.shrinks} shrinks)"
    }.mkString("; ")
    status match {
      case SCTest.Failed(as, labels)           => s"falsified by [${args(as)}] labels=$labels"
      case SCTest.PropException(as, e, labels) => s"threw $e on [${args(as)}] labels=$labels"
      case other                               => other.toString
    }
  }

  private val tempDirs = new java.util.concurrent.ConcurrentLinkedQueue[Path]()
  sys.addShutdownHook(tempDirs.forEach(d => TaskProcessor.deleteTree(d)))

  /** A new temp directory, deleted with its contents when the JVM exits. */
  def tempDir(prefix: String): Path = {
    val d = Files.createTempDirectory(prefix)
    tempDirs.add(d)
    d
  }

  /** Brute-force per-event sliding aggregate: for the i-th event, aggregates
    * `valueOf` over all events j <= i with the same key and
    * ts in (e_i.ts - delayMs - windowMs, e_i.ts - delayMs], optionally
    * filtered — the ground truth every engine must match.
    */
  def bruteSliding(events: Seq[Event], windowMs: Long, keyOf: Event => String,
                   filter: Option[JexlLite.Expr] = None, delayMs: Long = 0L): Seq[Seq[Event]] = {
    val seen = collection.mutable.ArrayBuffer.empty[Event]
    events.map { e =>
      seen += e
      seen.filter(x =>
        keyOf(x) == keyOf(e) &&
          x.ts > e.ts - delayMs - windowMs && x.ts <= e.ts - delayMs &&
          filter.forall(f => JexlLite.matches(f, x))).toSeq
    }
  }

  def count(w: Seq[Event]): Long = w.size.toLong
  def sum(w: Seq[Event], f: String): Option[Double] =
    if (w.isEmpty) None else Some(w.map(_.num(f)).sum)
  def avg(w: Seq[Event], f: String): Option[Double] =
    if (w.isEmpty) None else Some(w.map(_.num(f)).sum / w.size)
  def mx(w: Seq[Event], f: String): Option[Double] =
    if (w.isEmpty) None else Some(w.map(_.num(f)).max)
  def mn(w: Seq[Event], f: String): Option[Double] =
    if (w.isEmpty) None else Some(w.map(_.num(f)).min)
  def stdDev(w: Seq[Event], f: String): Option[Double] =
    if (w.isEmpty) None
    else {
      val xs = w.map(_.num(f)); val m = xs.sum / xs.size
      Some(math.sqrt(xs.map(x => (x - m) * (x - m)).sum / xs.size))
    }
  def countDistinct(w: Seq[Event], f: String): Long = w.map(_.str(f)).distinct.size.toLong

  def approxEq(a: Option[Any], b: Option[Double], eps: Double = 1e-6): Boolean = (a, b) match {
    case (None, None)       => true
    case (Some(x), Some(y)) => math.abs(anyNum(x) - y) <= eps * math.max(1.0, math.abs(y))
    case _                  => false
  }

  def anyNum(a: Any): Double = a match {
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case other     => other.toString.toDouble
  }
}
