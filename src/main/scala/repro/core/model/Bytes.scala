package repro.core.model

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}

/** Reads and writes small records as byte arrays through data streams that
  * each thread reuses, so a record costs its result and not a stream, its
  * buffers and a copy per call. Calls do not nest: `read` and `write` must
  * not call back into this object.
  */
object Bytes {

  private final class Input extends ByteArrayInputStream(Array.emptyByteArray) {
    val data = new DataInputStream(this)
    def over(bytes: Array[Byte]): DataInputStream = { buf = bytes; pos = 0; mark = 0; count = bytes.length; data }
  }
  private final class Output extends ByteArrayOutputStream(256) { val data = new DataOutputStream(this) }

  private val inputs = ThreadLocal.withInitial[Input](() => new Input)
  private val outputs = ThreadLocal.withInitial[Output](() => new Output)

  /** What `read` reads from `bytes`. */
  def read[A](bytes: Array[Byte])(read: DataInputStream => A): A = read(inputs.get.over(bytes))

  /** The bytes `write` writes. */
  def write(write: DataOutputStream => Unit): Array[Byte] = {
    val out = outputs.get
    out.reset(); write(out.data); out.data.flush()
    out.toByteArray
  }
}
