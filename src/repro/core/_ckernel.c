/* Compiled event kernel for repro.core.engine.
 *
 * Seven things live here, each the C twin of a Python reference that
 * stays in the tree and runs whenever the extension is not built or
 * ``kernel="python"`` is asked for:
 *
 * 0. ``EventQueue`` — what ``sim._heap`` is on ``kernel="c"``, where the
 *    reference keeps a list of tuples under the standard library's heap
 *    functions: an array of ``{time, seq, time_obj, a, b, c}`` structs
 *    ordered on ``(time, seq)``, and the seq counter.  ``push`` takes
 *    and ``pop``, ``[0]`` and iteration give the reference's tuples.
 * 1. ``run`` — ``Simulator.run``: the queue pop, the three-shape
 *    dispatch (raw ``schedule_fast`` entries, version-checked ``Timer``
 *    entries, ``EventHandle`` entries), the O(1)
 *    scheduled/executed/cancelled counter bookkeeping and the per-shape
 *    fired / lazily-dropped tallies telemetry's dispatch probe reads.
 * 2. ``arm`` / ``fan_out`` — ``engine._arm`` / ``engine._fan_out``: the
 *    two places the layers above build heap entries (one timer arm;
 *    two raw entries per receiver of a compiled fan-out plan), pushed
 *    here as structs.
 * 3. ``arrival_begins`` / ``arrival_ends`` — the receive
 *    edges of ``repro.phy.transceiver.Radio`` (with ``_try_lock``, the
 *    capture test, ``_refresh_interference`` and ``_update_cca``), working
 *    by offset on the ``__slots__`` of ``Radio``, ``SinrTracker``, the
 *    frame (``Transmission``), its ``PhyMode``, the ``RadioConfig`` and
 *    the ``CaptureModel``, the way the loop works on ``Timer``'s.  A
 *    plain radio binds them for its medium's fan-out
 *    (``repro.core.binding``, ``transceiver.RADIO``).
 * 4. ``_reception_complete`` — the reception tail of
 *    ``Radio``: unlock, the SINR arithmetic of ``SinrTracker.sinr_db``,
 *    the arithmetic of ``BerErrorModel.packet_error_rate`` and
 *    ``Modulation.ber`` over an exact ``Modulation``'s float fields
 *    (anything else, and an input the reference raises on, calls the
 *    model's ``packet_error_rate``), one ``rng.random()``, the trace
 *    check on the ``TraceLog`` or ``TraceDigest``, ``_update_cca`` and
 *    ``on_rx_end`` — frame, mode, modulation and trace sink read by
 *    offset too.  A plain radio binds it to its reception-end timer.
 * 5. ``_maybe_start_ifs`` / ``_cancel_access_timers`` / ``_ifs_expired``
 *    / ``phy_rx_end`` — the carrier-sense slots of
 *    ``repro.mac.dcf.DcfMac`` that are pure functions of MAC, NAV, radio
 *    and timer ``__slots__``, and the frame demux for the two verdicts
 *    that need nothing else: a corrupt frame (EIFS flag,
 *    ``rx_corrupt``) and one overheard by a third party (the
 *    transmitter's rate controller, ``Nav.set_until``,
 *    ``nav_updates``), read off the per-frame ``Dot11Frame.rx_verdict``
 *    — the one field still read by name, a derivation cached in the
 *    frame's instance dict — and counted in the ``Counter``'s
 *    ``_counts`` by offset (``dcf.MAC``).  A plain ``DcfMac`` hands them
 *    to its radio's CCA and reception-end upcalls, its NAV's expiry and
 *    its IFS timer (``Nav._fire`` itself stays Python: its twin paid
 *    nothing measurable).  A frame addressed to the
 *    station or to a group, ``_access_won`` and the building of the
 *    frames a MAC sends stay Python: C owns time and energy, Python
 *    owns the frames addressed to it.
 * 6. ``transmit`` / ``_tx_complete`` — the transmit path of ``Radio``
 *    (the TX state change, ``Medium.transmit``'s frame, plan check and
 *    fan-out, the raw end entry; at that entry IDLE and
 *    ``on_tx_end``), served as ``radio._transmit`` — what a
 *    ``DcfMac`` sends through — and ``radio._tx_done``.  The airtime, a
 *    plan miss (``_compile_plan``), the medium's ``observers`` and a
 *    medium with a ``transmit`` of its own, by class or instance, are
 *    Python's; so is ``Radio.transmit_energy``.
 *
 * 4, 5 and 6 are exported under their references' ``__name__``:
 * whatever labels a heap entry or an upcall by its callback must not
 * learn which kernel ran.
 *
 * The queue is the one piece of simulation state the extension owns.
 * Everything else stays where the pure-Python code keeps it (the clock,
 * the flags and the counters are the ``Simulator`` ``__slots__`` Python
 * code reads and telemetry samples, reached here by offset; a radio's
 * table is the same dict), and every Python scheduling site reaches the
 * queue through ``sim._push`` / ``sim._pop`` / ``sim._next_seq``, so
 * compiled and interpreted pieces mix freely and the Python code
 * remains the reference implementation.
 *
 * Bit-identity contract of the queue and the loop (KEEP IN SYNC with
 * engine.Simulator.run; held by ``tests/core/test_kernel_parity.py``
 * and ``tests/core/test_event_queue.py``):
 *
 * - Entries are ordered on ``(time, seq)`` and ``seq`` is unique, so the
 *   order is total and any correct priority queue pops the reference's
 *   sequence: layout is not part of the contract.  Pop order is, and so
 *   is ``len()`` at every instant (telemetry samples it, goldens
 *   byte-compare the series) — hence lazy deletion exactly as the
 *   reference has it: a superseded timer entry rides until popped.
 * - The key is ``float(time)``; the time *object* is kept and is what
 *   ``_now`` receives, so an int deadline reads back as an int, and a
 *   non-float ``until`` is compared with Python's rich comparison.  (A
 *   time whose exact value differs from its float — a Fraction off the
 *   binary grid, an int past 2**53 — is ordered as that float.)
 * - One loop for every signature (``until``, ``max_events``, both,
 *   neither).  The executed-events counter and the five shape tallies
 *   (``engine.SHAPE_COUNTS``: fired fast / timer / handle, dropped
 *   timer / handle — a duck-typed handle counts as a handle) live in
 *   locals and are stored once, at loop exit: a mid-run callback reads
 *   the figures of the run's start, as under the Python loop.  No slot
 *   is stored per event (ROADMAP item 7 records what that cost).
 * - Lazy drops (cancelled handles, superseded timer versions) touch no
 *   scheduling counters; the clock is written before the callback
 *   fires; the clock snaps to ``until`` only on a clean non-stopped
 *   exit; the ``_running`` flag and the counter write-back survive a
 *   raising callback — including one raised inside a compiled edge,
 *   tail or slot.
 *
 * Bit-identity contract of the primitives, the edges, the tail and the
 * slots (KEEP IN SYNC with engine._arm / engine._fan_out and the Radio,
 * DcfMac and Nav methods; held slot by slot, schedule by schedule and
 * failure by failure by ``tests/test_slot_differential.py``, and run by
 * run by ``tests/core/test_kernel_parity.py``):
 *
 * - The same statements in the same order: one seq per entry, drawn
 *   from the queue's counter (the one ``sim._next_seq`` is bound to) at
 *   the point the Python code calls ``_next_seq()``; the same counter
 *   increments; the same dict insertions and deletions, so table order
 *   is the same; exactly one ``rng.random()`` per decoded frame, drawn
 *   after the PER is known (a PER that raises draws nothing).
 * - The same floats: ``now + (delay + duration)`` parenthesized as
 *   written, ``10.0 * log10(ratio)`` with libm's ``log10`` (what
 *   ``math.log10`` calls), the BER curve and the PER with libm's
 *   ``pow`` / ``sqrt`` / ``erfc`` / ``log1p`` / ``expm1`` (what
 *   ``float.__pow__`` and ``math`` call), the countdown deadline as the
 *   left fold ``anchor + slot + slot + ...`` in a loop of doubles, no fused
 *   multiply-add (the build passes ``-ffp-contract=off``), and every
 *   table sum as ``builtins.sum`` takes it: a left fold in C doubles,
 *   plain (CPython 3.11) or Neumaier-compensated (3.12 on), whichever
 *   ``sum()`` itself — asked once, as the module loads: ``select_fold``
 *   — returns the bits of.  Where neither does, a table is empty or
 *   holds more than floats, ``sum()`` is called: speed lost, never bits.
 * - C handles the canonical shapes only (an exact ``Radio`` /
 *   ``DcfMac`` / ``Nav`` / ``Timer`` / ``Dot11Frame`` / ``Counter``,
 *   exact floats and machine-word ints, canonical bools, exact dicts,
 *   an exact ``SinrTracker`` / ``CaptureModel`` / ``BerErrorModel`` /
 *   ``Modulation`` / ``Transmission`` / ``PhyMode`` / ``RadioConfig`` /
 *   ``TraceLog`` / ``TraceDigest``), and reads every field it reads on
 *   them by offset — no field by name beside it; a ``Medium`` (no
 *   ``__slots__``) is read through its instance dict.  Anything else is
 *   handed to the Python reference *before* the step in question has
 *   changed anything, by one exit, ``run_reference``: a vectorcall of
 *   the object's own method of that name (a subclass's override is
 *   what runs).  It takes a twin's whole call — for a wrong argument
 *   count, a non-float power, a foreign object, an off-type MAC field,
 *   a fresh backoff draw (``_backoff_remaining is None``), a tail whose
 *   frame, mode or trace sink is not exactly its class or a transmit
 *   whose mode or trace sink is not (or that the reference refuses: TX,
 *   SLEEP, a foreign mode) — or one step (``_try_lock`` — also for a
 *   frame, mode or config not exactly its class —,
 *   ``_refresh_interference``, ``should_capture``, ``sinr_db``,
 *   ``frame_survives``, ``packet_error_rate``, ``_update_cca``,
 *   ``Nav.set_until``, ``Counter.incr``, ``Medium.transmit``,
 *   ``schedule_fast``) for an off-type field met after the first write.
 *   So the exception a malformed input raises, and the state it
 *   leaves, are the reference's own.  (A table sum the fold cannot
 *   take calls ``sum()``: a builtin, no method, see above.)
 * - Python owns what has no twin, and the twins call it directly: the
 *   rare ``_abort_locked``, ``_access_won``, the trace records
 *   (``_trace_rx_end``, ``_trace_tx_start``), the airtime
 *   (``frame_airtime``), a plan miss (``_compile_plan``),
 *   ``rng.random``, ``on_snr_measurement``, the rate factory, the
 *   upcalls and the medium's observers.
 * - Upcalls (``on_cca_busy`` / ``on_cca_idle`` / ``on_state_change`` /
 *   ``on_rx_end`` / ``on_tx_end``, the demux's
 *   ``_rate_factory`` and ``on_snr_measurement``) fire at the same
 *   points with the same state already written — the tail's idle
 *   edge *before* ``on_rx_end``, as in the reference; an exception from one propagates unchanged.  One
 *   call is skipped by definition: a controller whose class inherits
 *   ``RateController.on_snr_measurement`` — the documented no-op —
 *   is not fed (``IdealSnr`` and every overriding class are).  No borrowed pointer is used across a call
 *   that can run Python: slots are re-read after it, and what must span
 *   it (the table, the upcall, the capture object, the frame, the
 *   tracker) is held by a strong reference.  A holder the tail or a
 *   transmit re-reads after Python ran (the frame's mode, the trace
 *   sink; the medium, decided afresh) is checked again;
 *   one rebound meanwhile to another class is a TypeError, as a
 *   ``Radio._sim`` that is no ``Simulator`` is: the step is past handing
 *   off.
 *
 * NaN event times are unrepresentable (every scheduler rejects them,
 * and so does the queue), so comparing the keys as doubles is exact.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <errno.h>
#include <math.h>

/* --- module state (the "kernel" class set, see resolve) ---------------- */

static PyTypeObject *timer_type = NULL;
static PyTypeObject *handle_type = NULL;
static PyTypeObject *sim_type = NULL;
static PyObject *simulation_error = NULL;

/* Slot offsets for Timer / EventHandle / Simulator (__slots__ storage). */
static Py_ssize_t off_t_version = -1, off_t_armed = -1, off_t_callback = -1;
static Py_ssize_t off_t_sim = -1, off_t_time = -1;
static Py_ssize_t off_h_cancelled = -1, off_h_fired = -1;
static Py_ssize_t off_h_callback = -1, off_h_args = -1;
static Py_ssize_t off_sim_now = -1, off_sim_heap = -1, off_sim_stopped = -1;
static Py_ssize_t off_sim_running = -1, off_sim_executed = -1;
static Py_ssize_t off_sim_scheduled = -1, off_sim_cancelled = -1;

/* What the run loop tallies per popped entry (engine.SHAPE_COUNTS, in
 * its order): fired per shape, then dropped lazily. */
enum { FIRED_FAST, FIRED_TIMER, FIRED_HANDLE, DROPPED_TIMER, DROPPED_HANDLE,
       N_SHAPES };
static const char *const shape_names[N_SHAPES] = {
    "_fast_fired", "_timers_fired", "_handles_fired", "_timers_dropped",
    "_handles_dropped"};
static Py_ssize_t off_sim_shape[N_SHAPES] = {-1, -1, -1, -1, -1};

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

static PyObject *
slot_get(PyObject *obj, Py_ssize_t off, const char *name)
{
    PyObject *value = SLOT(obj, off);
    if (value == NULL)
        PyErr_Format(PyExc_AttributeError, "%s", name);
    return value;  /* borrowed */
}

static void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject *old = SLOT(obj, off);
    Py_INCREF(value);
    SLOT(obj, off) = value;
    Py_XDECREF(old);
}

/* ``obj.<slot> = n``; 0 or -1. */
static int
slot_set_int(PyObject *obj, Py_ssize_t off, long long n)
{
    PyObject *value = PyLong_FromLongLong(n);
    if (value == NULL)
        return -1;
    slot_set(obj, off, value);
    Py_DECREF(value);
    return 0;
}

/* Truthiness with a bool identity fast path (the engine only ever
 * stores the canonical True/False in these flags). */
static inline int
flag_is_true(PyObject *value)
{
    if (value == Py_True)
        return 1;
    if (value == Py_False)
        return 0;
    return PyObject_IsTrue(value);
}

/* Equality with a machine-int fast path (timer versions are exact
 * ints).  Returns 1/0/-1 like PyObject_RichCompareBool. */
static inline int
int_eq(PyObject *a, PyObject *b)
{
    if (a == b)
        return 1;
    if (PyLong_CheckExact(a) && PyLong_CheckExact(b)) {
        int oa = 0, ob = 0;
        /* Never raises for exact ints; overflow only sets the flag. */
        long long la = PyLong_AsLongLongAndOverflow(a, &oa);
        long long lb = PyLong_AsLongLongAndOverflow(b, &ob);
        if (!oa && !ob)
            return la == lb;
    }
    return PyObject_RichCompareBool(a, b, Py_EQ);
}

/* --- the event queue --------------------------------------------------- */

typedef struct {
    double time;         /* float(time_obj): the ordering key */
    long long seq;       /* unique, so (time, seq) is a total order */
    PyObject *time_obj;  /* what ``sim._now`` receives: an int stays one */
    PyObject *a, *b, *c; /* entry[2:]; b and c NULL on the shorter shapes */
} ck_entry;

typedef struct {
    PyObject_HEAD
    ck_entry *items;     /* a binary heap on (time, seq) */
    Py_ssize_t size, capacity;
    long long next_seq;  /* the tie-break counter ``next_seq()`` draws from */
} EventQueue;

static PyTypeObject EventQueue_Type;

static inline int
entry_before(const ck_entry *x, const ck_entry *y)
{
    if (x->time < y->time)
        return 1;
    if (y->time < x->time)
        return 0;
    return x->seq < y->seq;
}

static void
entry_hold(const ck_entry *e)
{
    Py_INCREF(e->time_obj);
    Py_INCREF(e->a);
    Py_XINCREF(e->b);
    Py_XINCREF(e->c);
}

static void
entry_clear(ck_entry *e)
{
    Py_DECREF(e->time_obj);
    Py_DECREF(e->a);
    Py_XDECREF(e->b);
    Py_XDECREF(e->c);
}

/* ``float(time)``, the ordering key; -1 for a time that is no real
 * number, or NaN, which orders against nothing.  The one step of a push
 * that can run Python (a non-float's ``__float__``): callers take it
 * before they read or write anything else. */
static int
entry_key(PyObject *time, double *key)
{
    *key = PyFloat_CheckExact(time) ? PyFloat_AS_DOUBLE(time)
                                    : PyFloat_AsDouble(time);
    if (*key == -1.0 && PyErr_Occurred())
        return -1;
    if (*key != *key) {
        PyErr_SetString(PyExc_ValueError, "event time is NaN");
        return -1;
    }
    return 0;
}

/* Settle ``*item`` at the hole ``pos`` or above it. */
static void
sift_up(ck_entry *items, Py_ssize_t pos, const ck_entry *item)
{
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_before(item, &items[parent]))
            break;
        items[pos] = items[parent];
        pos = parent;
    }
    items[pos] = *item;
}

/* Move ``*item`` into the queue, its references with it; -1 with
 * MemoryError, the item still the caller's.  Runs no Python. */
static int
queue_insert(EventQueue *q, const ck_entry *item)
{
    if (q->size == q->capacity) {
        Py_ssize_t capacity = q->capacity ? 2 * q->capacity : 64;
        ck_entry *items = (size_t)capacity > PY_SSIZE_T_MAX / sizeof(ck_entry)
            ? NULL : PyMem_Realloc(q->items, capacity * sizeof(ck_entry));
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        q->items = items;
        q->capacity = capacity;
    }
    sift_up(q->items, q->size++, item);
    return 0;
}

/* Move the minimum out into ``*out``, its references with it; the queue
 * must not be empty.  The hole walks down the smaller children to a
 * leaf — one comparison a level — and the last entry is lifted from
 * there.  Runs no Python. */
static void
queue_pop(EventQueue *q, ck_entry *out)
{
    ck_entry *items = q->items, last;
    Py_ssize_t pos = 0, size = --q->size, limit = size >> 1;

    *out = items[0];
    if (size == 0)
        return;
    last = items[size];
    while (pos < limit) {
        Py_ssize_t child = 2 * pos + 1;
        if (child + 1 < size
                && !entry_before(&items[child], &items[child + 1]))
            child += 1;
        items[pos] = items[child];
        pos = child;
    }
    sift_up(items, pos, &last);
}

/* Push ``(time, seq, a[, b[, c]])`` under a freshly drawn seq, ``key``
 * being entry_key(time); 0, or -1 with MemoryError. */
static int
queue_push(EventQueue *q, double key, PyObject *time, PyObject *a,
           PyObject *b, PyObject *c)
{
    ck_entry item = {key, q->next_seq, time, a, b, c};

    if (queue_insert(q, &item) < 0)
        return -1;
    q->next_seq += 1;
    entry_hold(&item);
    return 0;
}

/* ``(time, seq, a[, b[, c]])`` out of ``*e``, whose references move into
 * the tuple: ``*e`` is spent afterwards, on failure too. */
static PyObject *
entry_as_tuple(ck_entry *e)
{
    PyObject *seq = PyLong_FromLongLong(e->seq), *entry = NULL;

    if (seq != NULL)
        entry = PyTuple_New(3 + (e->b != NULL) + (e->c != NULL));
    if (entry == NULL) {
        Py_XDECREF(seq);
        entry_clear(e);
        return NULL;
    }
    PyTuple_SET_ITEM(entry, 0, e->time_obj);
    PyTuple_SET_ITEM(entry, 1, seq);
    PyTuple_SET_ITEM(entry, 2, e->a);
    if (e->b != NULL)
        PyTuple_SET_ITEM(entry, 3, e->b);
    if (e->c != NULL)
        PyTuple_SET_ITEM(entry, 4, e->c);
    return entry;
}

static PyObject *
eq_push(EventQueue *q, PyObject *entry)
{
    ck_entry item;
    Py_ssize_t n;
    PyObject *seq;
    int overflow = 0;

    /* Shape, seq and time are judged before the queue is touched. */
    if (!PyTuple_Check(entry) || (n = PyTuple_GET_SIZE(entry)) < 3 || n > 5) {
        PyErr_SetString(PyTuple_Check(entry) ? PyExc_ValueError
                                             : PyExc_TypeError,
                        "an event entry is a (time, seq, ...) tuple of 3 "
                        "to 5 items");
        return NULL;
    }
    if (!PyLong_CheckExact(seq = PyTuple_GET_ITEM(entry, 1))) {
        PyErr_SetString(PyExc_TypeError, "an event seq is an int");
        return NULL;
    }
    item.seq = PyLong_AsLongLongAndOverflow(seq, &overflow);
    if (overflow) {
        PyErr_SetString(PyExc_OverflowError,
                        "event seq does not fit a machine word");
        return NULL;
    }
    item.time_obj = PyTuple_GET_ITEM(entry, 0);
    if (entry_key(item.time_obj, &item.time) < 0)
        return NULL;
    item.a = PyTuple_GET_ITEM(entry, 2);
    item.b = n > 3 ? PyTuple_GET_ITEM(entry, 3) : NULL;
    item.c = n > 4 ? PyTuple_GET_ITEM(entry, 4) : NULL;
    if (queue_insert(q, &item) < 0)
        return NULL;
    entry_hold(&item);
    Py_RETURN_NONE;
}

static PyObject *
eq_pop(EventQueue *q, PyObject *unused)
{
    ck_entry e;

    if (q->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty EventQueue");
        return NULL;
    }
    /* Out of the array first: building the tuple can run a collection,
     * and a finalizer may push. */
    queue_pop(q, &e);
    return entry_as_tuple(&e);
}

static PyObject *
eq_next_seq(EventQueue *q, PyObject *unused)
{
    return PyLong_FromLongLong(q->next_seq++);
}

static Py_ssize_t
eq_length(EventQueue *q)
{
    return q->size;
}

/* ``queue[i]`` in array order: ``[0]`` is the minimum, the rest is what
 * iteration walks (a heap's layout — no order a caller may rely on). */
static PyObject *
eq_item(EventQueue *q, Py_ssize_t i)
{
    ck_entry e;

    if (i < 0 || i >= q->size) {
        PyErr_SetString(PyExc_IndexError, "EventQueue index out of range");
        return NULL;
    }
    e = q->items[i];
    entry_hold(&e);
    return entry_as_tuple(&e);
}

/* An entry holds its Timer, the Timer its Simulator, the Simulator this
 * queue: without these two the collector cannot break that cycle. */
static int
eq_traverse(EventQueue *q, visitproc visit, void *arg)
{
    Py_ssize_t i;

    for (i = 0; i < q->size; i++) {
        Py_VISIT(q->items[i].time_obj);
        Py_VISIT(q->items[i].a);
        Py_VISIT(q->items[i].b);
        Py_VISIT(q->items[i].c);
    }
    return 0;
}

static int
eq_clear(EventQueue *q)
{
    ck_entry *items = q->items;
    Py_ssize_t size = q->size;

    /* Detached first: dropping an entry can run Python that pushes. */
    q->items = NULL;
    q->size = q->capacity = 0;
    while (size > 0)
        entry_clear(&items[--size]);
    PyMem_Free(items);
    return 0;
}

static PyObject *
eq_clear_method(EventQueue *q, PyObject *unused)
{
    eq_clear(q);
    Py_RETURN_NONE;
}

static void
eq_dealloc(EventQueue *q)
{
    PyObject_GC_UnTrack(q);
    eq_clear(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

static PyMethodDef eq_methods[] = {
    {"push", (PyCFunction)eq_push, METH_O,
     "push(entry): add a (time, seq, handle) / (time, seq, timer, version)\n"
     "/ (time, seq, None, callback, args) tuple under its own seq."},
    {"pop", (PyCFunction)eq_pop, METH_NOARGS,
     "pop() -> entry: remove the (time, seq)-smallest entry, as a tuple."},
    {"next_seq", (PyCFunction)eq_next_seq, METH_NOARGS,
     "next_seq() -> int: draw the next tie-break sequence number."},
    {"clear", (PyCFunction)eq_clear_method, METH_NOARGS,
     "clear(): drop every entry (the seq counter keeps counting)."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods eq_as_sequence = {
    .sq_length = (lenfunc)eq_length,
    .sq_item = (ssizeargfunc)eq_item,
};

static PyTypeObject EventQueue_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._ckernel.EventQueue",
    .tp_basicsize = sizeof(EventQueue),
    .tp_dealloc = (destructor)eq_dealloc,
    .tp_as_sequence = &eq_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The pending-event queue of a kernel='c' Simulator: entries\n"
              "kept as structs ordered on (float(time), seq). len(), bool(),\n"
              "[0] (the minimum) and iteration read it; entries come back as\n"
              "the tuples push() takes.",
    .tp_traverse = (traverseproc)eq_traverse,
    .tp_clear = (inquiry)eq_clear,
    .tp_methods = eq_methods,
    .tp_new = PyType_GenericNew,
};

/* --- simulator state access ------------------------------------------ */

/* A Simulator (a subclass keeps the slot layout)?  Asked before any of
 * its state is read by offset. */
static inline int
is_sim(PyObject *sim)
{
    return sim != NULL && sim_type != NULL
        && PyObject_TypeCheck(sim, sim_type);
}

/* ``sim._heap`` (borrowed) of a simulator this kernel serves; NULL (no
 * error set; ``sim_queue``: TypeError) for any other — a
 * ``kernel="python"`` simulator keeps the reference list, which only
 * Python code pushes into. */
static EventQueue *
served_queue(PyObject *sim)
{
    PyObject *heap = is_sim(sim) ? SLOT(sim, off_sim_heap) : NULL;

    return heap != NULL && Py_TYPE(heap) == &EventQueue_Type
        ? (EventQueue *)heap : NULL;
}

static EventQueue *
sim_queue(PyObject *sim)
{
    EventQueue *queue = served_queue(sim);

    if (queue == NULL)
        PyErr_SetString(PyExc_TypeError, "expected a kernel='c' Simulator "
                        "(one whose _heap is a _ckernel.EventQueue)");
    return queue;
}

/* ``sim.<counter> += n`` for the exact-int bookkeeping counters. */
static int
counter_add(PyObject *sim, Py_ssize_t off, const char *name, long long n)
{
    PyObject *old = slot_get(sim, off, name);
    long long value;

    if (old == NULL)
        return -1;
    value = PyLong_AsLongLong(old);
    if (value == -1 && PyErr_Occurred())
        return -1;
    return slot_set_int(sim, off, value + n);
}

/* ``sim.<tally> += n`` on whatever the tally holds, as the Python
 * loop's ``finally`` writes it. */
static int
tally_add(PyObject *sim, Py_ssize_t off, const char *name, long long n)
{
    PyObject *old = slot_get(sim, off, name), *add, *sum;

    if (old == NULL || (add = PyLong_FromLongLong(n)) == NULL)
        return -1;
    Py_INCREF(old);
    sum = PyNumber_InPlaceAdd(old, add);
    Py_DECREF(old);
    Py_DECREF(add);
    if (sum == NULL)
        return -1;
    slot_set(sim, off, sum);
    Py_DECREF(sum);
    return 0;
}

/* The error just raised becomes the current one, with the fetched
 * ``type``/``value``/``tb`` (if any) as its ``__context__``: what an
 * exception raised in a ``finally`` does to the one in flight. */
static void
chain_fetched(PyObject *type, PyObject *value, PyObject *tb)
{
    PyObject *new_type, *new_value, *new_tb;

    if (type == NULL)
        return;
    PyErr_NormalizeException(&type, &value, &tb);
    if (tb != NULL)
        PyException_SetTraceback(value, tb);
    PyErr_Fetch(&new_type, &new_value, &new_tb);
    PyErr_NormalizeException(&new_type, &new_value, &new_tb);
    PyException_SetContext(new_value, value);  /* steals value */
    Py_DECREF(type);
    Py_XDECREF(tb);
    PyErr_Restore(new_type, new_value, new_tb);
}

/* --- scheduling primitives (C twins of engine._arm / engine._fan_out) -- */

/* Arm (or re-anchor) ``timer`` at absolute ``time``: the statements of
 * engine._arm in the same order — supersede-or-arm, bump the version,
 * record the deadline, count, draw a seq, push.  The key is taken
 * first: past it nothing here runs Python, so a caller's borrowed
 * pointers survive an arm. */
static int
arm_impl(PyObject *timer, PyObject *time)
{
    PyObject *sim, *armed, *version, *bumped;
    EventQueue *queue;
    double key;
    long long v;
    int is_armed, status;

    if (Py_TYPE(timer) != timer_type) {
        PyErr_SetString(PyExc_TypeError, "arm() needs an engine.Timer");
        return -1;
    }
    if (entry_key(time, &key) < 0
            || (sim = slot_get(timer, off_t_sim, "_sim")) == NULL
            || (queue = sim_queue(sim)) == NULL
            || (armed = slot_get(timer, off_t_armed, "_armed")) == NULL
            || (is_armed = flag_is_true(armed)) < 0)
        return -1;
    if (is_armed) {
        if (counter_add(sim, off_sim_cancelled, "_cancelled_events", 1) < 0)
            return -1;
    }
    else
        slot_set(timer, off_t_armed, Py_True);
    if ((version = slot_get(timer, off_t_version, "_version")) == NULL)
        return -1;
    v = PyLong_AsLongLong(version);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if ((bumped = PyLong_FromLongLong(v + 1)) == NULL)
        return -1;
    slot_set(timer, off_t_version, bumped);
    slot_set(timer, off_t_time, time);
    status = counter_add(sim, off_sim_scheduled, "_scheduled", 1) < 0 ? -1
        : queue_push(queue, key, time, timer, bumped, NULL);
    Py_DECREF(bumped);
    return status;
}

static PyObject *
ck_arm(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "arm(timer, time)");
        return NULL;
    }
    if (arm_impl(args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ``a + b`` with the exact-float fast path (new reference). */
static PyObject *
num_add(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b))
        return PyFloat_FromDouble(PyFloat_AS_DOUBLE(a) + PyFloat_AS_DOUBLE(b));
    return PyNumber_Add(a, b);
}

/* Push the raw entry ``(time, seq, None, callback, args)``; steals
 * ``time`` (which may be NULL: the error is then already set).  The
 * caller holds the queue: an exotic time's key can run Python. */
static int
push_raw(EventQueue *queue, PyObject *time, PyObject *callback,
         PyObject *args)
{
    double key;
    int status;

    if (time == NULL)
        return -1;
    status = entry_key(time, &key) < 0 ? -1
        : queue_push(queue, key, time, Py_None, callback, args);
    Py_DECREF(time);
    return status;
}

/* Push a compiled plan's arrival edges (engine._fan_out's loop): a raw
 * ``begins(transmission, rx_power)`` entry at ``now + delay`` and a raw
 * ``ends(transmission)`` entry at ``now + (delay + duration)`` per
 * ``(begins, ends, rx_power, delay)`` entry, then ``sim._scheduled +=
 * 2 * len(entries)``.  The caller holds ``now`` and the queue.  0 or
 * -1. */
static int
fan_out(PyObject *sim, EventQueue *queue, PyObject *plan,
        PyObject *transmission, PyObject *duration, PyObject *now)
{
    PyObject *entries, *ends_args = NULL;
    Py_ssize_t i, n;
    int status = -1;

    entries = PySequence_Fast(plan, "fan_out() needs a sequence of "
                              "(begins, ends, rx_power, delay) entries");
    if (entries == NULL)
        return -1;
    /* Every arrival_ends call takes the same arguments; one tuple. */
    if ((ends_args = PyTuple_Pack(1, transmission)) == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(entries);
    for (i = 0; i < n; i++) {
        PyObject *entry = PySequence_Fast_GET_ITEM(entries, i);
        PyObject *delay, *begins_args, *tail;
        int pushed;

        /* Plans hold tuples; anything else fails as unpacking would. */
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 4) {
            PyErr_SetString(PyTuple_Check(entry) ? PyExc_ValueError
                                                 : PyExc_TypeError,
                            "fan-out entries are (begins, ends, rx_power, "
                            "delay) tuples");
            goto done;
        }
        delay = PyTuple_GET_ITEM(entry, 3);
        begins_args = PyTuple_Pack(2, transmission,
                                   PyTuple_GET_ITEM(entry, 2));
        if (begins_args == NULL)
            goto done;
        pushed = push_raw(queue, num_add(now, delay),
                          PyTuple_GET_ITEM(entry, 0), begins_args);
        Py_DECREF(begins_args);
        if (pushed < 0)
            goto done;
        /* now + (delay + duration), NOT (now + delay) + duration: the
         * ulp between them reorders CCA edges. */
        if ((tail = num_add(delay, duration)) == NULL)
            goto done;
        pushed = push_raw(queue, num_add(now, tail),
                          PyTuple_GET_ITEM(entry, 1), ends_args);
        Py_DECREF(tail);
        if (pushed < 0)
            goto done;
    }
    status = counter_add(sim, off_sim_scheduled, "_scheduled", 2 * n);
done:
    Py_XDECREF(ends_args);
    Py_DECREF(entries);
    return status;
}

static PyObject *
ck_fan_out(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *sim, *now;
    EventQueue *queue;
    int status;

    if (nargs != 4 && nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "fan_out(sim, entries, "
                        "transmission, duration[, start])");
        return NULL;
    }
    sim = args[0];
    if ((queue = sim_queue(sim)) == NULL
            || (now = nargs == 5 && args[4] != Py_None ? args[4]
                : slot_get(sim, off_sim_now, "_now")) == NULL)
        return NULL;
    Py_INCREF(now);
    Py_INCREF(queue);
    status = fan_out(sim, queue, args[1], args[2], args[3], now);
    Py_DECREF(queue);
    Py_DECREF(now);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* --- PHY receive edges (C twins of Radio.arrival_begins / _ends) ------ */

/* The "phy" class set (see resolve), NULL until the first radio binds:
 * the radio, the frames and mode it receives, and its holders. */
static PyTypeObject *radio_type = NULL, *sinr_type = NULL;
static PyTypeObject *capture_type = NULL, *config_type = NULL;
static PyTypeObject *tx_type = NULL, *phymode_type = NULL;
static PyTypeObject *trace_type = NULL, *digest_type = NULL;
static PyObject *st_idle, *st_rx, *st_tx, *st_sleep;  /* RadioState members */
static PyObject *st_rx_value, *st_idle_value, *st_tx_value;  /* .value */
static PyObject *builtin_sum;
static PyObject *float_zero;
/* The exact classes whose PER the reception tail computes itself. */
static PyTypeObject *ber_type = NULL, *modulation_type = NULL;
/* What the transmit twin sends through and times the frame with. */
static PyTypeObject *medium_type = NULL;
static PyObject *int_zero, *int_one;
static PyObject *tx_ids;  /* Transmission._ids */

static PyObject *s_now, *s_values, *s_should_capture;
static PyObject *s_abort_locked, *s_try_lock, *s_refresh_interference;
static PyObject *s_reception_complete, *s_update_cca, *s_trace_rx_end;
static PyObject *s_sinr_db, *s_frame_survives, *s_packet_error_rate;
static PyObject *s_random;
static PyObject *s_maybe_start_ifs, *s_cancel_access_timers, *s_ifs_expired;
static PyObject *s_access_won, *s_arrival_begins, *s_arrival_ends;
static PyObject *s_phy_rx_end, *s_rx_verdict, *s_incr;
static PyObject *s_rx_corrupt, *s_nav_updates, *s_set_until, *s_until;
static PyObject *s_push, *s_pop, *s_next_seq, *s_arm, *s_fan_out;
static PyObject *s_standard, *s_on_snr_measurement;
static PyObject *s_transmit, *s_tx_complete, *s_sim, *s_plans;
static PyObject *s_plan_hits, *s_plan_misses, *s_compile_plan;
static PyObject *s_frame_airtime, *s_schedule_fast;
static PyObject *s_trace_tx_start, *s_observers;

static Py_ssize_t off_r_arrivals, off_r_state, off_r_locked;
static Py_ssize_t off_r_locked_power, off_r_locked_tracker, off_r_cca_busy;
static Py_ssize_t off_r_cca_threshold, off_r_capture;
static Py_ssize_t off_r_noise, off_r_config, off_r_decodable, off_r_sim;
static Py_ssize_t off_r_rx_timer, off_r_tracker, off_r_on_cca_busy;
static Py_ssize_t off_r_on_cca_idle, off_r_on_state_change;
static Py_ssize_t off_r_on_rx_end, off_r_error_model, off_r_rng, off_r_trace;
static Py_ssize_t off_r_medium, off_r_standard, off_r_position;
static Py_ssize_t off_r_channel, off_r_tx_power, off_r_tx_modes;
static Py_ssize_t off_r_tx_epoch, off_r_tx_done, off_r_on_tx_end;
static Py_ssize_t off_s_signal, off_s_noise, off_s_start, off_s_last;
static Py_ssize_t off_s_current, off_s_energy;
static Py_ssize_t off_tx_mode, off_tx_duration, off_tx_size_bits;
static Py_ssize_t off_tx_payload, off_pm_name, off_pm_modulation;
static Py_ssize_t off_tx_id, off_tx_sender, off_tx_power, off_tx_start;
static Py_ssize_t off_cap_enabled, off_cap_threshold, off_cfg_preamble;
static Py_ssize_t off_tl_enabled, off_td_enabled;
/* Modulation's (processing_gain_db, coding_gain_db, bits_per_symbol,
 * code_rate), in the order modulation_ber takes them. */
static Py_ssize_t off_mod_field[4];

/* ``obj``'s slot at ``off`` (borrowed) when it is exactly ``type``, NULL
 * (no error set) otherwise. */
static inline PyObject *
exact_slot(PyObject *obj, Py_ssize_t off, PyTypeObject *type)
{
    PyObject *value = SLOT(obj, off);

    return value != NULL && Py_TYPE(value) == type ? value : NULL;
}

/* Where ``sink.enabled`` sits when ``sink`` is exactly a TraceLog or a
 * TraceDigest — the two trace sinks the tail reads by offset —, 0 (no
 * error set) otherwise: an offset past the object header is never 0. */
static inline Py_ssize_t
sink_enabled(PyObject *sink)
{
    PyTypeObject *type = sink == NULL ? NULL : Py_TYPE(sink);

    return type == trace_type ? off_tl_enabled
        : type == digest_type ? off_td_enabled : 0;
}

static inline int
is_float(PyObject *value)
{
    return value != NULL && PyFloat_CheckExact(value);
}

/* ``a >= b``, ``a == b`` or ``a < b`` with the exact-float fast path;
 * 1/0/-1.  Not RichCompareBool: its identity test makes NaN equal
 * itself. */
static int
num_cmp(PyObject *a, PyObject *b, int op)
{
    PyObject *result;
    int truth;

    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b)) {
        double da = PyFloat_AS_DOUBLE(a), db = PyFloat_AS_DOUBLE(b);
        return op == Py_GE ? da >= db : op == Py_EQ ? da == db : da < db;
    }
    if ((result = PyObject_RichCompare(a, b, op)) == NULL)
        return -1;
    truth = PyObject_IsTrue(result);
    Py_DECREF(result);
    return truth;
}

/* units.linear_to_db: libm's log10 is what math.log10 calls for a
 * positive float, so the product is the reference's float. */
static inline double
linear_to_db(double ratio)
{
    return ratio <= 0.0 ? -Py_HUGE_VAL : 10.0 * log10(ratio);
}

/* Drop a call's result: 0, or -1 when the call raised. */
static int
discard(PyObject *result)
{
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* The one way back to the Python reference: ``args[0].<name>(*args[1:])``,
 * the method looked up on the object, so a subclass's override is what
 * runs.  A twin's whole call (an off-type shape, a wrong argument
 * count) and a step's (a rare or off-type field met after the first
 * write; every call site is reached before the step mutates anything
 * that the method would mutate again) come here and nowhere else.
 * The result (new reference), or NULL. */
static PyObject *
run_reference(PyObject *name, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1) {
        PyErr_Format(PyExc_TypeError, "%U() needs the object it serves",
                     name);
        return NULL;
    }
    return PyObject_VectorcallMethod(name, args, nargs, NULL);
}

/* Call a radio's upcall slot with a strong reference held (the slot
 * may be rebound by what it calls).  0 or -1. */
static int
upcall(PyObject *self, Py_ssize_t offset, const char *name, PyObject *arg)
{
    PyObject *callable = slot_get(self, offset, name);
    int status;

    if (callable == NULL)
        return -1;
    if (callable == Py_None && arg != NULL)
        return 0;  /* on_state_change is optional */
    Py_INCREF(callable);
    status = discard(arg != NULL ? PyObject_CallOneArg(callable, arg)
                                 : PyObject_CallNoArgs(callable));
    Py_DECREF(callable);
    return status;
}

/* The Radio.state setter: a new state is stored and reported to
 * on_state_change with its value; the current one changes nothing.
 * 0 or -1. */
static int
set_state(PyObject *self, PyObject *state, PyObject *value)
{
    if (SLOT(self, off_r_state) == state)
        return 0;
    slot_set(self, off_r_state, state);
    return upcall(self, off_r_on_state_change, "on_state_change", value);
}

/* The fold that is ``builtins.sum`` bit for bit: select_fold()'s answer. */
static enum { FOLD_BUILTIN, FOLD_PLAIN, FOLD_COMPENSATED } table_fold;
static const char *const fold_names[] = {"builtin", "plain", "compensated"};

/* ``sum(arrivals.values())`` of an exact dict, as ``fold``: the float
 * path of ``sum()`` over the values in insertion order the way CPython
 * 3.11 takes it (``f = 0.0 + v0; f += v``) or, compensated, 3.12 does
 * (Neumaier: what each later addition rounds away is kept in ``c`` and
 * added once at the end).  Where that is not the reference — no fold
 * agreed, an empty table (the int 0), anything but exact floats — no
 * Python has run yet and ``sum()`` itself is called: the result or the
 * exception is then the reference's own. */
static PyObject *
table_sum(PyObject *arrivals, int fold)
{
    Py_ssize_t pos = 0;
    PyObject *value, *values;
    double f = 0.0, c = 0.0, x, t;
    int folded = 0;

    while (fold != FOLD_BUILTIN && PyDict_Next(arrivals, &pos, NULL, &value)) {
        if (!PyFloat_CheckExact(value))
            goto reference;
        x = PyFloat_AS_DOUBLE(value);
        t = f + x;
        if (fold == FOLD_COMPENSATED && folded)
            c += fabs(f) >= fabs(x) ? (f - t) + x : (x - t) + f;
        f = t;
        folded = 1;
    }
    /* An infinite or NaN error term would turn an overflowed inf to NaN. */
    if (folded)
        return PyFloat_FromDouble(c != 0.0 && isfinite(c) ? f + c : f);
reference:
    if ((values = PyObject_CallMethodNoArgs(arrivals, s_values)) == NULL)
        return NULL;
    value = PyObject_CallOneArg(builtin_sum, values);
    Py_DECREF(values);
    return value;
}

/* ``sim._now`` of the radio's simulator (borrowed), or NULL. */
static PyObject *
radio_now(PyObject *self)
{
    PyObject *sim = slot_get(self, off_r_sim, "_sim");

    if (sim == NULL)
        return NULL;
    if (!is_sim(sim)) {
        PyErr_SetString(PyExc_TypeError, "Radio._sim must be a Simulator");
        return NULL;
    }
    return slot_get(sim, off_sim_now, "_now");
}

/* The interference a locked radio sees: the table's sum less the
 * locked signal, clamped at zero.  1 with *out set, 0 when the sum is
 * not a float minus a float (the reference must do it), -1 on error. */
static int
table_interference(PyObject *self, PyObject *arrivals, PyObject *locked,
                   double *out)
{
    PyObject *total, *locked_power;

    *out = 0.0;
    if (PyDict_GET_SIZE(arrivals) == 1) {
        /* Only the locked signal on the air: sum([p]) - p is 0.0. */
        int alone = PyDict_Contains(arrivals, locked);
        if (alone != 0)
            return alone;
    }
    if ((total = table_sum(arrivals, table_fold)) == NULL)
        return -1;
    locked_power = SLOT(self, off_r_locked_power);
    if (!PyFloat_CheckExact(total) || !is_float(locked_power)) {
        Py_DECREF(total);
        return 0;
    }
    *out = PyFloat_AS_DOUBLE(total) - PyFloat_AS_DOUBLE(locked_power);
    Py_DECREF(total);
    if (*out < 0.0)
        *out = 0.0;  /* keeps -0.0, as the reference does */
    return 1;
}

/* Radio._refresh_interference; 0 or -1. */
static int
refresh_interference(PyObject *self)
{
    PyObject *locked = SLOT(self, off_r_locked);
    PyObject *arrivals = SLOT(self, off_r_arrivals);
    PyObject *tracker, *now, *current, *last, *energy, *value;
    double interference, now_d, last_d;
    int known;

    if (locked == Py_None)
        return 0;
    if (locked == NULL || arrivals == NULL || !PyDict_CheckExact(arrivals))
        goto reference;
    /* Hashing the frame and summing the table may run Python. */
    Py_INCREF(locked);
    Py_INCREF(arrivals);
    known = table_interference(self, arrivals, locked, &interference);
    Py_DECREF(arrivals);
    Py_DECREF(locked);
    if (known < 0)
        return -1;
    tracker = SLOT(self, off_r_locked_tracker);
    if (!known || tracker == NULL || Py_TYPE(tracker) != sinr_type
            || !is_float(current = SLOT(tracker, off_s_current))
            || !is_float(last = SLOT(tracker, off_s_last))
            || !is_float(energy = SLOT(tracker, off_s_energy)))
        goto reference;
    if (interference == 0.0 && PyFloat_AS_DOUBLE(current) == 0.0)
        return 0;  /* zero-rate segment either way */
    if ((now = radio_now(self)) == NULL)
        return -1;
    if (!PyFloat_CheckExact(now))
        goto reference;
    /* SinrTracker.set_interference(now, interference); nothing below
     * can run Python, so the borrowed tracker and clock stay valid. */
    now_d = PyFloat_AS_DOUBLE(now);
    last_d = PyFloat_AS_DOUBLE(last);
    if (now_d < last_d) {
        PyErr_SetString(PyExc_ValueError,
                        "time went backwards in SinrTracker");
        return -1;
    }
    value = PyFloat_FromDouble(PyFloat_AS_DOUBLE(energy)
                               + PyFloat_AS_DOUBLE(current) * (now_d - last_d));
    if (value == NULL)
        return -1;
    slot_set(tracker, off_s_energy, value);
    Py_DECREF(value);
    if ((value = PyFloat_FromDouble(interference)) == NULL)
        return -1;
    slot_set(tracker, off_s_current, value);
    Py_DECREF(value);
    slot_set(tracker, off_s_last, now);
    return 0;
reference:
    return discard(run_reference(s_refresh_interference, &self, 1));
}

/* CaptureModel.should_capture for an exact CaptureModel with a bool
 * ``enabled`` and a float ``threshold_db``; 1/0, -2 when the method
 * itself must be asked.  Runs no Python. */
static int
capture_verdict(PyObject *capture, PyObject *locked_power, PyObject *power)
{
    PyObject *enabled, *threshold;

    if (Py_TYPE(capture) != capture_type || !PyFloat_CheckExact(locked_power)
            || ((enabled = SLOT(capture, off_cap_enabled)) != Py_True
                && enabled != Py_False)
            || !is_float(threshold = SLOT(capture, off_cap_threshold)))
        return -2;
    if (enabled == Py_False)
        return 0;
    if (PyFloat_AS_DOUBLE(locked_power) <= 0.0)
        return 1;
    return linear_to_db(PyFloat_AS_DOUBLE(power)
                        / PyFloat_AS_DOUBLE(locked_power))
        >= PyFloat_AS_DOUBLE(threshold);
}

/* ``self._capture.should_capture(self._locked_power, power)``; 1/0/-1. */
static int
should_capture(PyObject *self, PyObject *power)
{
    PyObject *args[3] = {slot_get(self, off_r_capture, "_capture"), NULL,
                         power};
    PyObject *verdict;
    int result;

    if (args[0] == NULL
            || (args[1] = slot_get(self, off_r_locked_power,
                                   "_locked_power")) == NULL)
        return -1;
    Py_INCREF(args[0]);
    Py_INCREF(args[1]);
    result = capture_verdict(args[0], args[1], power);
    if (result == -2) {
        verdict = run_reference(s_should_capture, args, 3);
        result = verdict == NULL ? -1 : PyObject_IsTrue(verdict);
        Py_XDECREF(verdict);
    }
    Py_DECREF(args[1]);
    Py_DECREF(args[0]);
    return result;
}

/* The first half of Radio._try_lock — a preamble this radio can see,
 * of a PHY it decodes?  1/0, -1 on error, -2 when the reference must
 * be asked (nothing has been touched yet): a config, frame or mode not
 * exactly its class, a noise floor or a threshold that is not a float.
 * Runs no Python until the mode name is looked up. */
static int
preamble_decodable(PyObject *self, PyObject *transmission, PyObject *power)
{
    PyObject *noise = SLOT(self, off_r_noise);
    PyObject *config = exact_slot(self, off_r_config, config_type);
    PyObject *mode = Py_TYPE(transmission) != tx_type ? NULL
        : exact_slot(transmission, off_tx_mode, phymode_type);
    PyObject *threshold, *name, *decodable;
    double noise_d;
    int verdict;

    if (!is_float(noise) || config == NULL || mode == NULL
            || !is_float(threshold = SLOT(config, off_cfg_preamble))
            || (name = SLOT(mode, off_pm_name)) == NULL)
        return -2;
    noise_d = PyFloat_AS_DOUBLE(noise);
    /* snr_db < self.config.preamble_detection_snr_db */
    if ((noise_d > 0 ? linear_to_db(PyFloat_AS_DOUBLE(power) / noise_d)
                     : Py_HUGE_VAL) < PyFloat_AS_DOUBLE(threshold))
        return 0;  /* too weak to see a preamble */
    /* transmission.mode.name in self.decodable_modes */
    if ((decodable = slot_get(self, off_r_decodable,
                              "decodable_modes")) == NULL)
        return -1;
    Py_INCREF(decodable);
    Py_INCREF(name);
    verdict = PySequence_Contains(decodable, name);  /* 0: foreign PHY */
    Py_DECREF(name);
    Py_DECREF(decodable);
    return verdict;
}

/* Radio._try_lock; 0 or -1.  ``arrivals`` is the edge's strong
 * reference to the table the new arrival already sits in. */
static int
try_lock(PyObject *self, PyObject *arrivals, PyObject *transmission,
         PyObject *power)
{
    PyObject *value, *duration, *timer, *tracker, *noise, *now;
    double interference = 0.0;
    int status = preamble_decodable(self, transmission, power);

    if (status == -2)
        goto reference;
    if (status <= 0)
        return status;
    if (PyDict_GET_SIZE(arrivals) != 1) {
        /* sum(arrivals.values()) - power; alone, exactly 0.0. */
        if ((value = table_sum(arrivals, table_fold)) == NULL)
            return -1;
        if (!PyFloat_CheckExact(value)) {
            Py_DECREF(value);
            goto reference;
        }
        interference = PyFloat_AS_DOUBLE(value) - PyFloat_AS_DOUBLE(power);
        Py_DECREF(value);
    }
    /* Read after the last call that could run Python, and checked
     * before the first statement the reference could not repeat (the
     * frame is the caller's and exactly a Transmission). */
    duration = SLOT(transmission, off_tx_duration);
    timer = SLOT(self, off_r_rx_timer);
    tracker = SLOT(self, off_r_tracker);
    noise = SLOT(self, off_r_noise);
    if ((now = radio_now(self)) == NULL)
        return -1;
    if (!PyFloat_CheckExact(now) || !is_float(duration) || timer == NULL
            || tracker == NULL || noise == NULL
            || Py_TYPE(tracker) != sinr_type)
        goto reference;
    /* The tail lands one airtime after the energy started arriving;
     * arming an exact float runs no Python, so the borrowed tracker,
     * noise and clock are still good below. */
    value = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                               + PyFloat_AS_DOUBLE(duration));
    status = value == NULL ? -1 : arm_impl(timer, value);
    Py_XDECREF(value);
    if (status == 0
            && (value = PyFloat_FromDouble(interference)) == NULL)
        status = -1;
    if (status == 0) {
        slot_set(self, off_r_locked, transmission);
        slot_set(self, off_r_locked_power, power);
        /* The tracker re-initialized as SinrTracker.reset sets it. */
        slot_set(tracker, off_s_signal, power);
        slot_set(tracker, off_s_noise, noise);
        slot_set(tracker, off_s_start, now);
        slot_set(tracker, off_s_last, now);
        slot_set(tracker, off_s_current, value);
        Py_DECREF(value);
        slot_set(tracker, off_s_energy, float_zero);
        slot_set(self, off_r_locked_tracker, tracker);
    }
    return status < 0 ? -1 : set_state(self, st_rx, st_rx_value);
reference:
    return discard(run_reference(s_try_lock, (PyObject *[]){
        self, transmission, power}, 3));
}

/* Radio.cca_busy's verdict on the table:
 * ``sum(arrivals.values()) >= radio._cca_threshold_watts``, the sum
 * taken first (an empty table is exactly 0.0, not folded).  Summing
 * foreign powers may run Python, so the radio and the table are held
 * across it.  1/0, -1 on error. */
static int
table_busy(PyObject *radio, PyObject *arrivals)
{
    PyObject *incident, *threshold;
    int busy = -1;

    Py_INCREF(radio);
    Py_INCREF(arrivals);
    incident = PyDict_GET_SIZE(arrivals) == 0 ? Py_NewRef(float_zero)
        : table_sum(arrivals, table_fold);
    if (incident != NULL && (threshold = slot_get(
            radio, off_r_cca_threshold, "_cca_threshold_watts")) != NULL) {
        Py_INCREF(threshold);
        busy = num_cmp(incident, threshold, Py_GE);
        Py_DECREF(threshold);
    }
    Py_XDECREF(incident);
    Py_DECREF(arrivals);
    Py_DECREF(radio);
    return busy;
}

/* Radio._update_cca: the verdict of Radio.cca_busy — TX and RX are
 * busy, a sleeping radio senses nothing, any other state asks the
 * table as it is now (the method asks one not exactly a dict) — then
 * the flag flip and its upcall.  0 or -1. */
static int
cca_tail(PyObject *self)
{
    PyObject *state = SLOT(self, off_r_state), *was;
    PyObject *arrivals = SLOT(self, off_r_arrivals);
    int busy, differs;

    if (state == st_tx || state == st_rx)
        busy = 1;
    else if (state == st_sleep)
        busy = 0;
    else if (arrivals == NULL || !PyDict_CheckExact(arrivals))
        return discard(run_reference(s_update_cca, &self, 1));
    else if ((busy = table_busy(self, arrivals)) < 0)
        return -1;
    /* busy != self._cca_busy; identical objects — every edge that
     * flips nothing — are answered without a call. */
    if ((was = slot_get(self, off_r_cca_busy, "_cca_busy")) == NULL)
        return -1;
    Py_INCREF(was);
    differs = PyObject_RichCompareBool(busy ? Py_True : Py_False, was, Py_NE);
    Py_DECREF(was);
    if (differs <= 0)
        return differs;
    slot_set(self, off_r_cca_busy, busy ? Py_True : Py_False);
    return busy ? upcall(self, off_r_on_cca_busy, "on_cca_busy", NULL)
                : upcall(self, off_r_on_cca_idle, "on_cca_idle", NULL);
}

/* The table (borrowed) when ``self`` is an exact Radio in the shape
 * the C edges and tail handle; NULL (no error set) sends the whole call
 * to the reference (``run_reference``), before anything was touched. */
static PyObject *
canonical_table(PyObject *self)
{
    PyObject *arrivals, *state;

    if (radio_type == NULL || Py_TYPE(self) != radio_type)
        return NULL;
    arrivals = SLOT(self, off_r_arrivals);
    state = SLOT(self, off_r_state);
    if (arrivals == NULL || !PyDict_CheckExact(arrivals)
            || SLOT(self, off_r_locked) == NULL
            || (state != st_idle && state != st_rx && state != st_tx
                && state != st_sleep))
        return NULL;
    return arrivals;
}

static PyObject *
ck_arrival_begins(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *transmission, *power, *arrivals, *state;
    int status = -1;

    if (nargs != 3)
        goto reference;
    self = args[0];
    transmission = args[1];
    power = args[2];
    arrivals = canonical_table(self);
    if (arrivals == NULL || !PyFloat_CheckExact(power))
        goto reference;
    Py_INCREF(arrivals);
    if (PyDict_SetItem(arrivals, transmission, power) < 0)
        goto done;
    state = SLOT(self, off_r_state);
    if (state == st_sleep)
        status = 0;  /* tracked, but a sleeping radio senses nothing */
    else if (SLOT(self, off_r_locked) != Py_None) {
        int capture = should_capture(self, power);
        if (capture < 0)
            goto done;
        if (capture) {
            if (discard(PyObject_CallMethodNoArgs(self, s_abort_locked)) < 0
                    || try_lock(self, arrivals, transmission, power) < 0)
                goto done;
        }
        else if (refresh_interference(self) < 0)
            goto done;
        status = cca_tail(self);
    }
    else if (state != st_idle
             || try_lock(self, arrivals, transmission, power) == 0)
        status = cca_tail(self);
done:
    Py_DECREF(arrivals);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
reference:
    return run_reference(s_arrival_begins, args, nargs);
}

static PyObject *
ck_arrival_ends(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *transmission, *arrivals, *locked;
    int status = -1;

    if (nargs != 2 || (arrivals = canonical_table(args[0])) == NULL)
        return run_reference(s_arrival_ends, args, nargs);
    self = args[0];
    transmission = args[1];
    Py_INCREF(arrivals);
    /* arrivals.pop(transmission, None) */
    if (PyDict_DelItem(arrivals, transmission) < 0) {
        if (!PyErr_ExceptionMatches(PyExc_KeyError))
            goto done;
        PyErr_Clear();
    }
    locked = SLOT(self, off_r_locked);
    if (locked == Py_None || locked == transmission
            || refresh_interference(self) == 0)
        status = cca_tail(self);
done:
    Py_DECREF(arrivals);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* --- the reception tail (C twin of Radio._reception_complete) ---------- */

/* SinrTracker.sinr_db(end) (new reference): the reference's expression
 * order over its six float fields, the method itself for anything
 * else. */
static PyObject *
sinr_db(PyObject *tracker, PyObject *end)
{
    PyObject *signal = SLOT(tracker, off_s_signal);
    PyObject *noise = SLOT(tracker, off_s_noise);
    PyObject *start = SLOT(tracker, off_s_start);
    PyObject *last = SLOT(tracker, off_s_last);
    PyObject *current = SLOT(tracker, off_s_current);
    PyObject *energy = SLOT(tracker, off_s_energy);
    double end_d, last_d, current_d, total_energy, duration, mean;
    double denominator;

    if (!PyFloat_CheckExact(end) || !is_float(signal) || !is_float(noise)
            || !is_float(start) || !is_float(last) || !is_float(current)
            || !is_float(energy))
        return run_reference(s_sinr_db, (PyObject *[]){tracker, end}, 2);
    end_d = PyFloat_AS_DOUBLE(end);
    last_d = PyFloat_AS_DOUBLE(last);
    current_d = PyFloat_AS_DOUBLE(current);
    if (end_d < last_d) {
        PyErr_SetString(PyExc_ValueError,
                        "reception cannot end before last update");
        return NULL;
    }
    total_energy = PyFloat_AS_DOUBLE(energy) + current_d * (end_d - last_d);
    duration = end_d - PyFloat_AS_DOUBLE(start);
    mean = duration > 0 ? total_energy / duration : current_d;
    denominator = PyFloat_AS_DOUBLE(noise) + mean;
    if (denominator <= 0.0)
        return PyFloat_FromDouble(Py_HUGE_VAL);  /* linear_to_db(inf) */
    return PyFloat_FromDouble(
        linear_to_db(PyFloat_AS_DOUBLE(signal) / denominator));
}

/* ``base ** exponent`` as float.__pow__ takes it for a positive base
 * other than 1: the non-finite and zero exponents it answers itself
 * are libm's answers too; otherwise libm's pow and the interpreter's
 * errno test.  0, or -1 where the interpreter raises OverflowError. */
static int
float_pow(double base, double exponent, double *result)
{
    errno = 0;
    *result = pow(base, exponent);
    if (!isfinite(exponent) || exponent == 0.0)
        return 0;
    return errno == 0 ? (isinf(*result) ? -1 : 0)
                      : (errno == ERANGE && *result == 0.0 ? 0 : -1);
}

/* Modulation.ber(snr_db) over the fields ``(processing_gain_db,
 * coding_gain_db, bits_per_symbol, code_rate)``, statement for
 * statement; 0, or -1 where the method raises (it must be asked).
 * ``max(x, 0.0)`` and ``min(x, 0.5)`` keep x unless the constant
 * compares past it: a NaN stays NaN, -0.0 stays -0.0. */
static int
modulation_ber(double snr_db, const double field[4], double *ber)
{
    double bits = field[2], snr, efficiency, ebno, m, x;

    if (float_pow(10.0, (snr_db + field[0] + field[1]) / 10.0, &snr) < 0)
        return -1;
    efficiency = bits * field[3];
    if (efficiency <= 0)
        return -1;  /* ValueError: non-positive spectral efficiency */
    ebno = snr / efficiency;
    if (bits <= 2.0) {
        x = 2.0 * ebno;
        *ber = 0.5 * erfc(sqrt(0.0 > x ? 0.0 : x) / sqrt(2.0));
        return 0;
    }
    if (float_pow(2.0, bits, &m) < 0)
        return -1;
    x = 3.0 * bits * ebno / (m - 1.0);
    x = (4.0 / bits) * (1.0 - 1.0 / sqrt(m))
        * (0.5 * erfc(sqrt(0.0 > x ? 0.0 : x) / sqrt(2.0)));
    *ber = 0.5 < x ? 0.5 : x;
    return 0;
}

/* BerErrorModel.packet_error_rate(snr, size_bits, modulation) for an
 * exact Modulation whose fields are floats and an int size_bits up to
 * 2**53 (where ``size_bits * log1p(-ber)`` is the double product):
 * 0 with the PER, -1 on error, 1 where the method must be asked —
 * any other input, and one it raises on. */
static int
packet_error_rate(PyObject *snr, PyObject *size_bits, PyObject *modulation,
                  double *per)
{
    PyObject *value;
    double field[4], ber;
    long long bits;
    int overflow, i;

    if (!PyLong_CheckExact(size_bits))
        return 1;
    bits = PyLong_AsLongLongAndOverflow(size_bits, &overflow);
    if (overflow > 0 || bits > (1LL << 53))
        return 1;
    if (overflow < 0 || bits <= 0) {
        *per = 0.0;
        return 0;
    }
    if (Py_TYPE(modulation) != modulation_type || !PyFloat_CheckExact(snr))
        return 1;
    for (i = 0; i < 4; i++) {
        if (!is_float(value = SLOT(modulation, off_mod_field[i])))
            return 1;
        field[i] = PyFloat_AS_DOUBLE(value);
    }
    if (modulation_ber(PyFloat_AS_DOUBLE(snr), field, &ber) < 0)
        return 1;
    *per = ber <= 0.0 ? 0.0
        : ber >= 1.0 ? 1.0 : -expm1((double)bits * log1p(-ber));
    return 0;
}

/* BerErrorModel.frame_survives for an exact BerErrorModel (new
 * reference): the PER, then — and only then — one draw. */
static PyObject *
ber_frame_survives(PyObject *model, PyObject *snr, PyObject *size_bits,
                   PyObject *modulation, PyObject *rng)
{
    PyObject *per, *draw, *verdict = NULL;
    double computed;
    int status = packet_error_rate(snr, size_bits, modulation, &computed);

    if (status < 0)
        return NULL;
    per = status == 0 ? PyFloat_FromDouble(computed)
        : run_reference(s_packet_error_rate,
                        (PyObject *[]){model, snr, size_bits, modulation}, 4);
    if (per == NULL)
        return NULL;  /* a PER that raises draws no random number */
    if ((draw = PyObject_CallMethodNoArgs(rng, s_random)) != NULL) {
        if (PyFloat_CheckExact(draw) && PyFloat_CheckExact(per)) {
            verdict = PyFloat_AS_DOUBLE(draw) >= PyFloat_AS_DOUBLE(per)
                ? Py_True : Py_False;
            Py_INCREF(verdict);
        }
        else
            verdict = PyObject_RichCompare(draw, per, Py_GE);
        Py_DECREF(draw);
    }
    Py_DECREF(per);
    return verdict;
}

/* What the tail reads by offset after Python may have run — the
 * frame's mode — checked again: ``obj``'s slot at ``off`` (borrowed),
 * or NULL with TypeError when an upcall, a model or a draw rebound it
 * to an object of another class since the step began (nothing can hand
 * the step to the reference any more). */
static PyObject *
still_exact(PyObject *obj, Py_ssize_t off, PyTypeObject *type,
            const char *name)
{
    PyObject *value = exact_slot(obj, off, type);

    if (value == NULL)
        PyErr_Format(PyExc_TypeError, "%s was rebound during a reception "
                     "tail; it must stay a %s", name, type->tp_name);
    return value;
}

/* ``self.error_model.frame_survives(snr_db, transmission.size_bits,
 * transmission.mode.modulation, self._rng)`` (new reference), operands
 * evaluated in the reference's order.  Only an exact BerErrorModel is
 * answered here; any other model's own method is called. */
static PyObject *
frame_survives(PyObject *self, PyObject *transmission, PyObject *snr)
{
    /* (model, snr, size_bits, modulation, rng): the method's call. */
    PyObject *args[5] = {NULL, snr, NULL, NULL, NULL}, *mode;
    PyObject *verdict = NULL;

    if ((args[0] = slot_get(self, off_r_error_model, "error_model")) == NULL)
        return NULL;
    Py_INCREF(args[0]);
    if ((args[2] = slot_get(transmission, off_tx_size_bits,
                            "size_bits")) != NULL
            && (mode = still_exact(transmission, off_tx_mode, phymode_type,
                                   "Transmission.mode")) != NULL
            && (args[3] = slot_get(mode, off_pm_modulation,
                                   "modulation")) != NULL
            && (args[4] = slot_get(self, off_r_rng, "_rng")) != NULL) {
        /* Held: the PER's hand-off, a model and a draw can run Python. */
        Py_INCREF(args[2]);
        Py_INCREF(args[3]);
        Py_INCREF(args[4]);
        verdict = Py_TYPE(args[0]) == ber_type
            ? ber_frame_survives(args[0], snr, args[2], args[3], args[4])
            : run_reference(s_frame_survives, args, 5);
        Py_DECREF(args[4]);
        Py_DECREF(args[3]);
        Py_DECREF(args[2]);
    }
    Py_DECREF(args[0]);
    return verdict;
}

/* ``self._trace.enabled`` of the sink a compiled step began with; 1, 0
 * or -1. */
static int
trace_on(PyObject *self)
{
    Py_ssize_t off = sink_enabled(SLOT(self, off_r_trace));
    PyObject *enabled;
    int traced;

    /* As ``still_exact``: a sink rebound since the step began. */
    if (off == 0) {
        PyErr_SetString(PyExc_TypeError, "Radio._trace was rebound during "
                        "a compiled step; it must stay a TraceLog or a "
                        "TraceDigest");
        return -1;
    }
    if ((enabled = slot_get(SLOT(self, off_r_trace), off, "enabled"))
            == NULL)
        return -1;
    Py_INCREF(enabled);
    traced = flag_is_true(enabled);
    Py_DECREF(enabled);
    return traced;
}

/* ``if self._trace.enabled: self._trace_rx_end(...)``; 0 or -1. */
static int
trace_rx_end(PyObject *self, PyObject *now, PyObject *transmission,
             PyObject *success, PyObject *snr)
{
    int traced = trace_on(self);

    if (traced <= 0)
        return traced;
    return discard(PyObject_CallMethodObjArgs(self, s_trace_rx_end, now,
                                              transmission, success, snr,
                                              NULL));
}

/* ``self.on_rx_end(transmission.payload, success, snr_db,
 * transmission.mode)``; 0 or -1. */
static int
rx_end_upcall(PyObject *self, PyObject *transmission, PyObject *success,
              PyObject *snr)
{
    PyObject *callable = slot_get(self, off_r_on_rx_end, "on_rx_end");
    /* One spare slot in front: a bound method puts its self there
     * instead of copying the arguments. */
    PyObject *args[5] = {NULL, NULL, success, snr, NULL};
    int status = -1;

    if (callable == NULL
            || (args[1] = slot_get(transmission, off_tx_payload,
                                   "payload")) == NULL
            || (args[4] = slot_get(transmission, off_tx_mode,
                                   "mode")) == NULL)
        return -1;
    Py_INCREF(callable);
    Py_INCREF(args[1]);
    Py_INCREF(args[4]);
    status = discard(PyObject_Vectorcall(
        callable, args + 1, 4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL));
    Py_DECREF(args[4]);
    Py_DECREF(args[1]);
    Py_DECREF(callable);
    return status;
}

static PyObject *
ck_reception_complete(PyObject *module, PyObject *self)
{
    PyObject *transmission, *tracker;
    PyObject *now = NULL, *snr = NULL, *success = NULL;
    int status = -1;

    if (canonical_table(self) == NULL || ber_type == NULL)
        goto reference;
    transmission = SLOT(self, off_r_locked);
    if (transmission == Py_None)
        Py_RETURN_NONE;  /* the lock was aborted meanwhile */
    /* What the tail reads by offset: the tracker, the frame, its mode
     * and the trace sink, each exactly its class, or the whole call is
     * the reference's. */
    tracker = SLOT(self, off_r_locked_tracker);
    if (tracker == NULL || Py_TYPE(tracker) != sinr_type
            || Py_TYPE(transmission) != tx_type
            || exact_slot(transmission, off_tx_mode, phymode_type) == NULL
            || sink_enabled(SLOT(self, off_r_trace)) == 0)
        goto reference;
    /* Both outlive the slots that are about to let go of them. */
    Py_INCREF(transmission);
    Py_INCREF(tracker);
    slot_set(self, off_r_locked, Py_None);
    slot_set(self, off_r_locked_tracker, Py_None);
    if (set_state(self, st_idle, st_idle_value) < 0
            || (now = radio_now(self)) == NULL)
        goto done;
    Py_INCREF(now);
    if ((snr = sinr_db(tracker, now)) == NULL
            || (success = frame_survives(self, transmission, snr)) == NULL
            || trace_rx_end(self, now, transmission, success, snr) < 0)
        goto done;
    /* Radio._update_cca: its idle upcall fires before on_rx_end. */
    if (cca_tail(self) < 0)
        goto done;
    status = rx_end_upcall(self, transmission, success, snr);
done:
    Py_XDECREF(success);
    Py_XDECREF(snr);
    Py_XDECREF(now);
    Py_DECREF(tracker);
    Py_DECREF(transmission);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
reference:
    return run_reference(s_reception_complete, &self, 1);
}

/* --- the transmit path (C twins of Radio.transmit / _tx_complete) ---- */

/* ``medium.<name> += 1`` in its instance dict; 0 or -1. */
static int
dict_incr(PyObject *dict, PyObject *name)
{
    PyObject *count = Py_XNewRef(PyDict_GetItemWithError(dict, name));
    PyObject *bumped = NULL;
    int status = -1;

    if (count == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, name);
    if (count != NULL && (bumped = PyNumber_InPlaceAdd(count, int_one)))
        status = PyDict_SetItem(dict, name, bumped);
    Py_XDECREF(bumped);
    Py_XDECREF(count);
    return status;
}

/* Each of ``medium.observers`` called as ``(tx, len(entries))``: 0 or -1. */
static int
notify_observers(PyObject *medium, PyObject *tx, PyObject *entries)
{
    PyObject *observers = PyObject_GetAttr(medium, s_observers);
    PyObject *iter = observers ? PyObject_GetIter(observers) : NULL;
    PyObject *observer, *width = NULL;
    Py_ssize_t size;

    while (iter != NULL && !PyErr_Occurred()
           && (observer = PyIter_Next(iter)) != NULL) {
        if (width == NULL && (size = PyObject_Size(entries)) >= 0)
            width = PyLong_FromSsize_t(size);
        if (width != NULL)
            discard(PyObject_CallFunctionObjArgs(observer, tx, width, NULL));
        Py_DECREF(observer);
    }
    Py_XDECREF(width);
    Py_XDECREF(iter);
    Py_XDECREF(observers);
    return PyErr_Occurred() ? -1 : 0;
}

/* ``self.medium.transmit(self, payload, size_bits, mode, duration,
 * self.tx_power_watts)``.  On a ``Medium`` of a compiled simulator
 * whose class does not override ``transmit`` and that holds no
 * ``transmit`` of its own, its statements over its instance dict: the
 * frame built by offset, its id the next of ``Transmission._ids``; the
 * plan checked against the sender's position and power and counted, a
 * miss compiled by ``_compile_plan``; the fan-out; the observers.  Any
 * other medium's ``transmit`` is called.  0 or -1. */
static int
medium_transmit(PyObject *self, PyObject *payload, PyObject *size_bits,
                PyObject *mode, PyObject *duration)
{
    PyObject *medium, *power, *dict = NULL, *sim = NULL, *plans = NULL;
    PyObject *now = NULL, *channel = NULL, *id, *tx = NULL, *plan = NULL;
    PyObject *entries = NULL;
    EventQueue *queue;
    int status = -1, hit = 0;

    if ((medium = Py_XNewRef(slot_get(self, off_r_medium, "medium"))) == NULL)
        return -1;
    if ((power = Py_XNewRef(slot_get(self, off_r_tx_power,
                                     "tx_power_watts"))) == NULL)
        goto done;
    if (PyObject_TypeCheck(medium, medium_type)
            && _PyType_Lookup(Py_TYPE(medium), s_transmit)
               == _PyType_Lookup(medium_type, s_transmit)
            && (dict = PyObject_GenericGetDict(medium, NULL)) != NULL) {
        sim = Py_XNewRef(PyDict_GetItemWithError(dict, s_sim));
        plans = Py_XNewRef(PyDict_GetItemWithError(dict, s_plans));
    }
    if (plans == NULL || !PyDict_CheckExact(plans) || !served_queue(sim)
            || PyDict_GetItemWithError(dict, s_transmit) || PyErr_Occurred()) {
        if (!PyErr_Occurred())
            status = discard(run_reference(s_transmit, (PyObject *[]){
                medium, self, payload, size_bits, mode, duration, power}, 7));
        goto done;
    }
    if ((now = Py_XNewRef(slot_get(sim, off_sim_now, "_now"))) == NULL
            || (channel = Py_XNewRef(slot_get(self, off_r_channel,
                                              "_channel_id"))) == NULL
            || (id = PyIter_Next(tx_ids)) == NULL)
        goto done;
    if ((tx = tx_type->tp_alloc(tx_type, 0)) != NULL) {
        slot_set(tx, off_tx_id, id);
        slot_set(tx, off_tx_sender, self);
        slot_set(tx, off_tx_payload, payload);
        slot_set(tx, off_tx_size_bits, size_bits);
        slot_set(tx, off_tx_mode, mode);
        slot_set(tx, off_tx_power, power);
        slot_set(tx, off_tx_start, now);
        slot_set(tx, off_tx_duration, duration);
    }
    Py_DECREF(id);
    /* A plan is the (position, power, entries) tuple _compile_plan
     * stores; any other value is compiled over. */
    plan = Py_XNewRef(PyDict_GetItemWithError(plans, self));
    if (tx == NULL || PyErr_Occurred()
            || (plan != NULL && PyTuple_CheckExact(plan)
                && PyTuple_GET_SIZE(plan) == 3
                && PyTuple_GET_ITEM(plan, 0) == SLOT(self, off_r_position)
                && (hit = num_cmp(PyTuple_GET_ITEM(plan, 1), power, Py_EQ))
                   < 0))
        goto done;
    if (!hit)
        Py_XSETREF(plan, PyObject_CallMethodObjArgs(
            medium, s_compile_plan, self, channel, power, NULL));
    if (plan != NULL && dict_incr(dict, hit ? s_plan_hits : s_plan_misses) == 0
            && (entries = PySequence_GetItem(plan, 2)) != NULL
            && (queue = sim_queue(sim)) != NULL) {
        Py_INCREF(queue);
        if ((status = fan_out(sim, queue, entries, tx, duration, now)) == 0)
            status = notify_observers(medium, tx, entries);
        Py_DECREF(queue);
    }
done:
    Py_XDECREF(entries);
    Py_XDECREF(plan);
    Py_XDECREF(tx);
    Py_XDECREF(channel);
    Py_XDECREF(now);
    Py_XDECREF(plans);
    Py_XDECREF(sim);
    Py_XDECREF(dict);
    Py_XDECREF(power);
    Py_DECREF(medium);
    return status;
}

/* ``self._sim.schedule_fast(duration, self._tx_done, self._tx_epoch)``:
 * ``_scheduled += 1`` and the raw entry ``(now + duration, seq, None,
 * _tx_done, (epoch,))``, or the method for a delay it rejects or a
 * simulator this kernel does not serve.  0 or -1. */
static int
tx_end_entry(PyObject *self, PyObject *duration)
{
    PyObject *sim, *callback, *epoch, *args, *now;
    EventQueue *queue;
    double delay = is_float(duration) ? PyFloat_AS_DOUBLE(duration) : -1.0;
    int status = -1;

    if ((sim = slot_get(self, off_r_sim, "_sim")) == NULL
            || (callback = slot_get(self, off_r_tx_done, "_tx_done")) == NULL
            || (epoch = slot_get(self, off_r_tx_epoch, "_tx_epoch")) == NULL
            || (args = PyTuple_Pack(1, epoch)) == NULL)
        return -1;
    Py_INCREF(sim);
    Py_INCREF(callback);
    if ((queue = served_queue(sim)) == NULL
            || !(0.0 <= delay && delay < Py_HUGE_VAL))
        status = discard(run_reference(s_schedule_fast, (PyObject *[]){
            sim, duration, callback, epoch}, 4));
    else if ((now = slot_get(sim, off_sim_now, "_now")) != NULL
             && counter_add(sim, off_sim_scheduled, "_scheduled", 1) == 0) {
        Py_INCREF(queue);
        status = push_raw(queue, num_add(now, duration), callback, args);
        Py_DECREF(queue);
    }
    Py_DECREF(callback);
    Py_DECREF(sim);
    Py_DECREF(args);
    return status;
}

static PyObject *
ck_transmit(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *mode, *state, *name, *names, *standard, *duration;
    int known = 0, traced;

    if (nargs != 4)
        goto reference;
    self = args[0];
    mode = args[3];
    /* The one guard: a radio, mode or trace sink not exactly its class,
     * or a state or mode the reference refuses, is the reference's whole
     * call, before anything is written. */
    if (canonical_table(self) != NULL && Py_TYPE(mode) == phymode_type
            && (state = SLOT(self, off_r_state)) != st_tx
            && state != st_sleep && sink_enabled(SLOT(self, off_r_trace))
            && (name = SLOT(mode, off_pm_name)) != NULL
            && PyUnicode_CheckExact(name)
            && (names = SLOT(self, off_r_tx_modes)) != NULL
            && PyAnySet_CheckExact(names)
            && (known = PySet_Contains(names, name)) < 0)
        return NULL;
    if (known <= 0)
        goto reference;
    /* Transmitting aborts any in-progress reception (half duplex). */
    if ((SLOT(self, off_r_locked) != Py_None
            && discard(PyObject_CallMethodNoArgs(self, s_abort_locked)) < 0)
            || set_state(self, st_tx, st_tx_value) < 0 || cca_tail(self) < 0
            || (standard = slot_get(self, off_r_standard, "standard")) == NULL
            || (duration = PyObject_CallMethodObjArgs(
                    standard, s_frame_airtime, args[2], mode, NULL)) == NULL)
        return NULL;
    if (medium_transmit(self, args[1], args[2], mode, duration) < 0
            || tx_end_entry(self, duration) < 0
            || (traced = trace_on(self)) < 0
            || (traced && discard(PyObject_CallMethodObjArgs(
                    self, s_trace_tx_start, args[2], mode, NULL)) < 0))
        Py_CLEAR(duration);
    return duration;
reference:
    return run_reference(s_transmit, args, nargs);
}

static PyObject *
ck_tx_complete(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *current;
    int differs;

    if ((nargs != 1 && nargs != 2) || canonical_table(args[0]) == NULL)
        return run_reference(s_tx_complete, args, nargs);
    self = args[0];
    /* epoch != self._tx_epoch: a power_off() mid-burst already tore the
     * transmission down; its stale end drains out.  (Identical epochs
     * are equal without a call, as in cca_tail.) */
    if ((current = Py_XNewRef(slot_get(self, off_r_tx_epoch, "_tx_epoch")))
            == NULL)
        return NULL;
    differs = PyObject_RichCompareBool(nargs == 2 ? args[1] : int_zero,
                                       current, Py_NE);
    Py_DECREF(current);
    if (differs < 0 || (!differs && (
            set_state(self, st_idle, st_idle_value) < 0 || cca_tail(self) < 0
            || upcall(self, off_r_on_tx_end, "on_tx_end", NULL) < 0)))
        return NULL;
    Py_RETURN_NONE;
}

/* --- carrier-sense slots (C twins of DcfMac / Nav methods) ------------- */

/* The "mac" class set (see resolve): the MAC and the NAV it reads. */
static PyTypeObject *mac_type = NULL, *nav_type = NULL;
static Py_ssize_t off_m_sim, off_m_radio, off_m_nav, off_m_current;
static Py_ssize_t off_m_backoff_remaining, off_m_ifs, off_m_countdown;
static Py_ssize_t off_m_anchor, off_m_remaining, off_m_pending_send;
static Py_ssize_t off_m_tx_continuation, off_m_awaiting, off_m_use_eifs;
static Py_ssize_t off_m_slot_time, off_m_difs, off_m_eifs;
static Py_ssize_t off_n_sim, off_n_until, off_n_on_expire;

/* ``sim._now`` (borrowed) when ``sim`` is a Simulator whose clock is an
 * exact float, NULL — no error set — otherwise. */
static PyObject *
float_now(PyObject *sim)
{
    PyObject *now = is_sim(sim) ? SLOT(sim, off_sim_now) : NULL;

    return is_float(now) ? now : NULL;
}

/* 1/0: ``timer._armed`` of an exact Timer holding a canonical bool;
 * -1 (no error set): not that shape. */
static inline int
timer_armed(PyObject *timer)
{
    PyObject *armed;

    if (timer == NULL || Py_TYPE(timer) != timer_type)
        return -1;
    armed = SLOT(timer, off_t_armed);
    return armed == Py_True ? 1 : armed == Py_False ? 0 : -1;
}

/* An exact int that fits a machine word: 1 with *out set, else 0. */
static inline int
small_int(PyObject *value, long long *out)
{
    int overflow = 0;

    if (value == NULL || !PyLong_CheckExact(value))
        return 0;
    *out = PyLong_AsLongLongAndOverflow(value, &overflow);
    return !overflow;
}

/* DcfMac._maybe_start_ifs: reads, then one arm. */
static PyObject *
ck_maybe_start_ifs(PyObject *module, PyObject *self)
{
    PyObject *ifs, *current, *awaiting, *continuation, *nav, *until;
    PyObject *radio, *state, *arrivals, *use_eifs, *wait, *now, *deadline;
    int armed, pending, busy, status;

    if (mac_type == NULL || Py_TYPE(self) != mac_type || radio_type == NULL
            || (armed = timer_armed(ifs = SLOT(self, off_m_ifs))) < 0
            || (!armed
                && (armed = timer_armed(SLOT(self, off_m_countdown))) < 0))
        goto reference;
    if (armed)
        Py_RETURN_NONE;  /* already contending */
    current = SLOT(self, off_m_current);
    awaiting = SLOT(self, off_m_awaiting);
    continuation = SLOT(self, off_m_tx_continuation);
    if (current == NULL || awaiting == NULL || continuation == NULL
            || (pending = timer_armed(SLOT(self, off_m_pending_send))) < 0)
        goto reference;
    if (current == Py_None || awaiting != Py_None
            || continuation != Py_None || pending)
        Py_RETURN_NONE;  /* nothing to send, or mid-exchange */
    nav = SLOT(self, off_m_nav);
    radio = SLOT(self, off_m_radio);
    if ((now = float_now(SLOT(self, off_m_sim))) == NULL
            || nav == NULL || Py_TYPE(nav) != nav_type
            || !is_float(until = SLOT(nav, off_n_until))
            || radio == NULL || Py_TYPE(radio) != radio_type
            || (state = SLOT(radio, off_r_state)) == NULL)
        goto reference;
    if (PyFloat_AS_DOUBLE(now) < PyFloat_AS_DOUBLE(until)
            || state != st_idle)
        Py_RETURN_NONE;  /* NAV reservation; TX/RX busy or asleep */
    arrivals = SLOT(radio, off_r_arrivals);
    use_eifs = SLOT(self, off_m_use_eifs);
    if (arrivals == NULL || !PyDict_CheckExact(arrivals)
            || SLOT(radio, off_r_cca_threshold) == NULL
            || (use_eifs != Py_True && use_eifs != Py_False)
            || !is_float(wait = SLOT(self, use_eifs == Py_True ? off_m_eifs
                                                               : off_m_difs)))
        goto reference;
    /* Summing a table of foreign powers may run Python: the deadline
     * is taken first and the timer is held. */
    deadline = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                  + PyFloat_AS_DOUBLE(wait));
    if (deadline == NULL)
        return NULL;
    Py_INCREF(ifs);
    busy = table_busy(radio, arrivals);
    status = busy != 0 ? busy : arm_impl(ifs, deadline);
    Py_DECREF(ifs);
    Py_DECREF(deadline);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
reference:
    return run_reference(s_maybe_start_ifs, &self, 1);
}

/* DcfMac._cancel_access_timers: two disarms and, for a running
 * countdown, the replay of the slot boundaries that elapsed. */
static PyObject *
ck_cancel_access_timers(PyObject *module, PyObject *self)
{
    PyObject *ifs, *countdown, *sim, *now;
    PyObject *slot = NULL, *anchor = NULL, *remaining_obj = NULL;
    long long remaining = 0;
    int ifs_armed, countdown_armed;

    if (mac_type == NULL || Py_TYPE(self) != mac_type
            || (ifs_armed = timer_armed(ifs = SLOT(self, off_m_ifs))) < 0
            || (countdown_armed = timer_armed(
                    countdown = SLOT(self, off_m_countdown))) < 0)
        goto reference;
    if (!ifs_armed && !countdown_armed)
        Py_RETURN_NONE;
    now = float_now(sim = SLOT(self, off_m_sim));
    /* Timer.cancel counts on the timer's own simulator. */
    if (!is_sim(sim) || SLOT(ifs, off_t_sim) != sim
            || SLOT(countdown, off_t_sim) != sim || (countdown_armed
            && (now == NULL
                || !is_float(slot = SLOT(self, off_m_slot_time))
                || !is_float(anchor = SLOT(self, off_m_anchor))
                || !small_int(remaining_obj = SLOT(self, off_m_remaining),
                              &remaining))))
        goto reference;
    /* Nothing below runs Python: the borrowed fields stay valid. */
    if (ifs_armed) {
        slot_set(ifs, off_t_armed, Py_False);
        if (counter_add(sim, off_sim_cancelled, "_cancelled_events", 1) < 0)
            return NULL;
    }
    if (countdown_armed) {
        double slot_d = PyFloat_AS_DOUBLE(slot);
        double now_d = PyFloat_AS_DOUBLE(now);
        double boundary = PyFloat_AS_DOUBLE(anchor) + slot_d;
        long long counted = remaining;

        slot_set(countdown, off_t_armed, Py_False);
        if (counter_add(sim, off_sim_cancelled, "_cancelled_events", 1) < 0)
            return NULL;
        /* The left fold the slot-by-slot countdown performed; a
         * boundary landing exactly on ``now`` was already counted. */
        while (boundary <= now_d && remaining > 0) {
            remaining -= 1;
            boundary += slot_d;
        }
        if (remaining == counted)
            slot_set(self, off_m_backoff_remaining, remaining_obj);
        else if (slot_set_int(self, off_m_backoff_remaining, remaining) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
reference:
    return run_reference(s_cancel_access_timers, &self, 1);
}

/* DcfMac._ifs_expired: the countdown's one event at its last slot
 * boundary.  A fresh draw (``_backoff_remaining is None``) is the
 * reference's whole call; a spent counter goes to the Python
 * ``_access_won``. */
static PyObject *
ck_ifs_expired(PyObject *module, PyObject *self)
{
    PyObject *countdown, *slot, *now, *expiry_obj, *remaining_obj;
    long long remaining, i;
    double expiry, slot_d;
    int status;

    if (mac_type == NULL || Py_TYPE(self) != mac_type
            || !small_int(remaining_obj = SLOT(self, off_m_backoff_remaining),
                          &remaining))
        goto reference;
    if (remaining <= 0) {
        slot_set(self, off_m_use_eifs, Py_False);
        if (discard(PyObject_CallMethodNoArgs(self, s_access_won)) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    countdown = SLOT(self, off_m_countdown);
    if (timer_armed(countdown) < 0
            || !is_float(slot = SLOT(self, off_m_slot_time))
            || (now = float_now(SLOT(self, off_m_sim))) == NULL)
        goto reference;
    slot_set(self, off_m_use_eifs, Py_False);
    slot_set(self, off_m_anchor, now);
    slot_set(self, off_m_remaining, remaining_obj);
    /* anchor + slot + slot + ...: the additions the per-slot chain
     * made, in its order — not remaining * slot. */
    expiry = PyFloat_AS_DOUBLE(now);
    slot_d = PyFloat_AS_DOUBLE(slot);
    for (i = 0; i < remaining; i++)
        expiry += slot_d;
    if ((expiry_obj = PyFloat_FromDouble(expiry)) == NULL)
        return NULL;
    status = arm_impl(countdown, expiry_obj);
    Py_DECREF(expiry_obj);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
reference:
    return run_reference(s_ifs_expired, &self, 1);
}

/* --- the frame demux (C twin of DcfMac.phy_rx_end) ---------------------- */

/* The rest of the "mac" class set. */
static PyTypeObject *frame_type = NULL, *counter_type = NULL;
static PyObject *unfed_snr = NULL;  /* RateController.on_snr_measurement */
static Py_ssize_t off_m_sniffer, off_m_counters, off_m_controllers;
static Py_ssize_t off_m_address_value, off_m_rate_factory, off_n_timer;
static Py_ssize_t off_c_counts;

/* ``counters._counts`` (new reference) when ``counters`` is an exact
 * Counter over an exact dict holding a machine int, or nothing, under
 * ``name`` (*count receives it, 0 for nothing); NULL — no error set —
 * for any other shape. */
static PyObject *
counter_table(PyObject *counters, PyObject *name, long long *count)
{
    PyObject *counts, *held;

    if (counters == NULL || Py_TYPE(counters) != counter_type
            || (counts = SLOT(counters, off_c_counts)) == NULL
            || !PyDict_CheckExact(counts))
        return NULL;
    *count = 0;
    if ((held = PyDict_GetItemWithError(counts, name)) == NULL
            ? !PyErr_Occurred()
            : small_int(held, count) && *count < PY_LLONG_MAX)
        return Py_NewRef(counts);
    PyErr_Clear();
    return NULL;
}

/* ``counts[name] = count + 1`` on what counter_table returned (the
 * reference is stolen); 0 or -1. */
static int
counter_store(PyObject *counts, PyObject *name, long long count)
{
    PyObject *value = PyLong_FromLongLong(count + 1);
    int status = value == NULL ? -1 : PyDict_SetItem(counts, name, value);

    Py_XDECREF(value);
    Py_DECREF(counts);
    return status;
}

/* ``self.counters.incr(name)``; 0 or -1. */
static int
counter_incr(PyObject *self, PyObject *name)
{
    PyObject *counters = slot_get(self, off_m_counters, "counters"), *counts;
    long long count;
    int status;

    if (counters == NULL)
        return -1;
    if ((counts = counter_table(counters, name, &count)) != NULL)
        return counter_store(counts, name, count);
    Py_INCREF(counters);
    status = discard(run_reference(s_incr, (PyObject *[]){counters, name}, 2));
    Py_DECREF(counters);
    return status;
}

/* 1 when ``nav`` is an exact Nav in the shape nav_set_until works on. */
static int
nav_canonical(PyObject *nav)
{
    return nav != NULL && Py_TYPE(nav) == nav_type
        && is_float(SLOT(nav, off_n_until))
        && SLOT(nav, off_n_on_expire) != NULL
        && SLOT(nav, off_n_timer) != NULL
        && float_now(SLOT(nav, off_n_sim)) != NULL;
}

/* Nav.set_until(time) on a canonical Nav (held by the caller) for an
 * exact-float ``time``; 0 or -1. */
static int
nav_set_until(PyObject *nav, PyObject *time)
{
    double now = PyFloat_AS_DOUBLE(float_now(SLOT(nav, off_n_sim)));
    double until = PyFloat_AS_DOUBLE(time), delay = until - now;
    PyObject *timer, *deadline;
    int status;

    if (until <= PyFloat_AS_DOUBLE(SLOT(nav, off_n_until)))
        return 0;  /* the NAV only ever moves forward */
    slot_set(nav, off_n_until, time);
    if (SLOT(nav, off_n_on_expire) == Py_None)
        return 0;
    /* now + max(time - now, 0.0), the float schedule(delay) produced:
     * not ``time``. */
    deadline = PyFloat_FromDouble(now + (delay > 0.0 ? delay : 0.0));
    if (deadline == NULL)
        return -1;
    timer = SLOT(nav, off_n_timer);
    Py_INCREF(timer);
    status = arm_impl(timer, deadline);
    Py_DECREF(timer);
    Py_DECREF(deadline);
    return status;
}

/* ``self.nav.set_until(self.sim._now + reservation)`` for an exact-float
 * reservation; 0 or -1. */
static int
extend_nav(PyObject *self, PyObject *reservation)
{
    PyObject *sim = slot_get(self, off_m_sim, "sim"), *now, *nav, *time;
    int status;

    if (sim == NULL)
        return -1;
    /* ck_phy_rx_end checked the clock before it wrote anything; only a
     * rate controller run since can have rebound it. */
    if ((now = float_now(sim)) == NULL) {
        PyErr_SetString(PyExc_TypeError, "DcfMac.sim._now was rebound "
                        "during a frame demux; it must stay a float on a "
                        "Simulator");
        return -1;
    }
    time = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                              + PyFloat_AS_DOUBLE(reservation));
    if (time == NULL || (nav = slot_get(self, off_m_nav, "nav")) == NULL) {
        Py_XDECREF(time);
        return -1;
    }
    Py_INCREF(nav);
    status = nav_canonical(nav) ? nav_set_until(nav, time)
        : discard(run_reference(s_set_until, (PyObject *[]){nav, time}, 2));
    Py_DECREF(nav);
    Py_DECREF(time);
    return status;
}

/* The transmitter's rate controller hears the frame: the probe of
 * ``_controllers`` (an exact dict, keyed by address ints: no Python
 * runs), a miss asking ``self._rate_factory(self.radio.standard)`` and
 * inserting what it returns — a raising factory inserts nothing — then
 * ``controller.on_snr_measurement(snr_db)``.  0 or -1. */
static int
feed_controller(PyObject *self, PyObject *transmitter, PyObject *snr)
{
    PyObject *controllers = SLOT(self, off_m_controllers);
    PyObject *controller = PyDict_GetItemWithError(controllers, transmitter);
    PyTypeObject *type;
    int status;

    if (controller != NULL)
        Py_INCREF(controller);
    else {
        PyObject *factory, *radio, *standard;

        if (PyErr_Occurred()
                || (factory = slot_get(self, off_m_rate_factory,
                                       "_rate_factory")) == NULL
                || (radio = slot_get(self, off_m_radio, "radio")) == NULL)
            return -1;
        Py_INCREF(factory);
        Py_INCREF(radio);
        standard = PyObject_GetAttr(radio, s_standard);
        Py_DECREF(radio);
        controller = standard == NULL ? NULL
            : PyObject_CallOneArg(factory, standard);
        Py_XDECREF(standard);
        Py_DECREF(factory);
        /* The factory ran Python: the dict is read again. */
        if (controller == NULL
                || (controllers = slot_get(self, off_m_controllers,
                                           "_controllers")) == NULL) {
            Py_XDECREF(controller);
            return -1;
        }
        Py_INCREF(controllers);
        status = PyObject_SetItem(controllers, transmitter, controller);
        Py_DECREF(controllers);
        if (status < 0) {
            Py_DECREF(controller);
            return -1;
        }
    }
    /* A class that inherits RateController's own on_snr_measurement —
     * a no-op by definition — is not called; any other is. */
    type = Py_TYPE(controller);
    status = type->tp_getattro == PyObject_GenericGetAttr
            && _PyType_Lookup(type, s_on_snr_measurement) == unfed_snr
        ? 0 : discard(PyObject_CallMethodOneArg(
                          controller, s_on_snr_measurement, snr));
    Py_DECREF(controller);
    return status;
}

/* DcfMac.phy_rx_end for the two verdicts that need no frame handling: a
 * corrupt frame and a frame overheard by a third party.  A frame for
 * this station or for a group, a sniffer, a foreign payload and every
 * off-type field are the reference's whole call, decided before
 * anything is written. */
static PyObject *
ck_phy_rx_end(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *payload, *success, *verdict = NULL, *counts;
    PyObject *group, *reservation, *transmitter, *nav, *now, *until;
    long long count, receiver, address;
    int idle;

    if (nargs != 5)
        goto reference;
    self = args[0];
    payload = args[1];
    success = args[2];
    if (mac_type == NULL || Py_TYPE(self) != mac_type
            || Py_TYPE(payload) != frame_type
            || (success != Py_True && success != Py_False))
        goto reference;
    if (success == Py_False) {
        /* Undecodable frame: defer with EIFS next time. */
        counts = counter_table(SLOT(self, off_m_counters), s_rx_corrupt,
                               &count);
        if (counts == NULL)
            goto reference;
        slot_set(self, off_m_use_eifs, Py_True);
        if (counter_store(counts, s_rx_corrupt, count) < 0)
            return NULL;
        return ck_maybe_start_ifs(module, self);
    }
    if (SLOT(self, off_m_sniffer) != Py_None)
        goto reference;
    /* (receiver, group, NAV seconds, transmitter): derived in Python at
     * the frame's first decode, an instance-dict hit ever after. */
    if ((verdict = PyObject_GetAttr(payload, s_rx_verdict)) == NULL)
        return NULL;
    if (!PyTuple_CheckExact(verdict) || PyTuple_GET_SIZE(verdict) != 4
            || !small_int(PyTuple_GET_ITEM(verdict, 0), &receiver)
            || !small_int(SLOT(self, off_m_address_value), &address)
            || ((group = PyTuple_GET_ITEM(verdict, 1)) != Py_True
                && group != Py_False)
            || !PyFloat_CheckExact(
                    reservation = PyTuple_GET_ITEM(verdict, 2))
            || ((transmitter = PyTuple_GET_ITEM(verdict, 3)) != Py_None
                && !PyLong_CheckExact(transmitter))
            || receiver == address || group == Py_True
            || SLOT(self, off_m_controllers) == NULL
            || !PyDict_CheckExact(SLOT(self, off_m_controllers))
            || !nav_canonical(SLOT(self, off_m_nav))
            || float_now(SLOT(self, off_m_sim)) == NULL)
        goto reference;
    if (PyFloat_AS_DOUBLE(reservation) > 0.0) {
        counts = counter_table(SLOT(self, off_m_counters), s_nav_updates,
                               &count);
        if (counts == NULL)
            goto reference;
        Py_DECREF(counts);
    }
    /* Overheard.  The controller may run Python, so every later step
     * reads its slots afresh and has its method to fall back on. */
    if (transmitter != Py_None
            && feed_controller(self, transmitter, args[3]) < 0)
        goto error;
    /* The reservation counts even when it did not extend the NAV. */
    if (PyFloat_AS_DOUBLE(reservation) > 0.0
            && (extend_nav(self, reservation) < 0
                || counter_incr(self, s_nav_updates) < 0))
        goto error;
    /* if self.sim._now >= self.nav._until: self._maybe_start_ifs() —
     * under a live reservation the call is a guaranteed no-op. */
    nav = SLOT(self, off_m_nav);
    now = float_now(SLOT(self, off_m_sim));
    if (now != NULL && nav != NULL && Py_TYPE(nav) == nav_type
            && is_float(until = SLOT(nav, off_n_until)))
        idle = PyFloat_AS_DOUBLE(now) >= PyFloat_AS_DOUBLE(until);
    else {
        PyObject *sim = slot_get(self, off_m_sim, "sim");

        now = sim == NULL ? NULL : PyObject_GetAttr(sim, s_now);
        nav = now == NULL ? NULL : slot_get(self, off_m_nav, "nav");
        until = nav == NULL ? NULL : PyObject_GetAttr(nav, s_until);
        idle = until == NULL ? -1
            : PyObject_RichCompareBool(now, until, Py_GE);
        Py_XDECREF(until);
        Py_XDECREF(now);
        if (idle < 0)
            goto error;
    }
    Py_DECREF(verdict);
    if (idle)
        return ck_maybe_start_ifs(module, self);
    Py_RETURN_NONE;
error:
    Py_DECREF(verdict);
    return NULL;
reference:
    Py_XDECREF(verdict);
    return run_reference(s_phy_rx_end, args, nargs);
}

/* --- the run loop ------------------------------------------------------ */

static int
index_error(void)
{
    /* What ``entry[3]`` / ``entry[4]`` of too short a tuple raises. */
    PyErr_SetString(PyExc_IndexError, "tuple index out of range");
    return -1;
}

/* What the popped entry ``*e`` fires — the three shapes and the
 * duck-typed handle (counted as a handle), told apart as Simulator.run
 * tells them.  Its shape: a ``FIRED_*`` with ``*callback`` and
 * ``*cargs`` set (new references; ``*cargs`` NULL for a call without
 * arguments), a ``DROPPED_*`` for a lazy drop (a cancelled handle, a
 * superseded or disarmed timer), or -1 on error. */
static int
entry_target(const ck_entry *e, PyObject **callback, PyObject **cargs)
{
    PyObject *ev = e->a, *flag;
    int set, shape = FIRED_HANDLE;

    *cargs = NULL;
    if (ev == Py_None) {
        /* (time, seq, None, callback, args): fire-and-forget. */
        if (e->c == NULL)
            return index_error();
        Py_INCREF(*callback = e->b);
        Py_INCREF(*cargs = e->c);
        shape = FIRED_FAST;
    }
    else if (Py_TYPE(ev) == timer_type) {
        /* (time, seq, timer, version): version-checked Timer. */
        PyObject *version;
        int live;

        if (e->b == NULL)
            return index_error();
        if ((version = slot_get(ev, off_t_version, "_version")) == NULL
                || (live = int_eq(version, e->b)) < 0
                || (flag = slot_get(ev, off_t_armed, "_armed")) == NULL
                || (set = flag_is_true(flag)) < 0)
            return -1;
        if (!live || !set)
            return DROPPED_TIMER;  /* superseded/cancelled: lazy drop */
        slot_set(ev, off_t_armed, Py_False);
        if ((*callback = slot_get(ev, off_t_callback, "_callback")) == NULL)
            return -1;
        Py_INCREF(*callback);
        return FIRED_TIMER;
    }
    else if (Py_TYPE(ev) == handle_type) {
        /* (time, seq, handle): cancellable EventHandle. */
        if ((flag = slot_get(ev, off_h_cancelled, "_cancelled")) == NULL
                || (set = flag_is_true(flag)) < 0)
            return -1;
        if (set)
            return DROPPED_HANDLE;  /* lazy drop */
        slot_set(ev, off_h_fired, Py_True);
        if ((*callback = slot_get(ev, off_h_callback, "callback")) == NULL
                || (*cargs = slot_get(ev, off_h_args, "args")) == NULL)
            return -1;
        Py_INCREF(*callback);
        Py_INCREF(*cargs);
    }
    else {
        /* Exotic handle-like object: mirror the Python loop's
         * attribute protocol exactly (used by nothing in-tree, but
         * duck-typed handles must behave identically). */
        if ((flag = PyObject_GetAttrString(ev, "_cancelled")) == NULL)
            return -1;
        set = PyObject_IsTrue(flag);
        Py_DECREF(flag);
        if (set != 0)
            return set < 0 ? -1 : DROPPED_HANDLE;
        if (PyObject_SetAttrString(ev, "_fired", Py_True) < 0
                || (*callback = PyObject_GetAttrString(ev, "callback")) == NULL)
            return -1;
        if ((*cargs = PyObject_GetAttrString(ev, "args")) == NULL) {
            Py_DECREF(*callback);
            return -1;
        }
    }
    return shape;
}

static PyObject *
ck_run(PyObject *module, PyObject *args)
{
    PyObject *sim, *until = Py_None, *max_events = Py_None, *value;
    EventQueue *queue;
    double until_d = 0.0, budget = 0.0;
    int until_is_none, until_is_float, budget_is_inf;
    long long executed, counts[N_SHAPES] = {0};
    int status, shape, i;

    if (!PyArg_ParseTuple(args, "O|OO:run", &sim, &until, &max_events))
        return NULL;
    /* Not a kernel='c' Simulator — or its class set never resolved. */
    if ((queue = sim_queue(sim)) == NULL)
        return NULL;

    /* Re-entrancy guard, before touching any state. */
    if ((value = slot_get(sim, off_sim_running, "_running")) == NULL
            || (status = PyObject_IsTrue(value)) < 0)
        return NULL;
    if (status) {
        PyErr_SetString(simulation_error, "run() called re-entrantly");
        return NULL;
    }

    until_is_none = (until == Py_None);
    until_is_float = PyFloat_CheckExact(until);
    if (until_is_float)
        until_d = PyFloat_AS_DOUBLE(until);
    budget_is_inf = (max_events == Py_None);
    if (!budget_is_inf) {
        budget = PyFloat_AsDouble(max_events);
        if (budget == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if ((value = slot_get(sim, off_sim_executed, "_events_executed")) == NULL)
        return NULL;
    executed = PyLong_AsLongLong(value);
    if (executed == -1 && PyErr_Occurred())
        return NULL;
    Py_INCREF(queue);
    slot_set(sim, off_sim_running, Py_True);
    slot_set(sim, off_sim_stopped, Py_False);

    /* Entries leave the queue by value: a callback may push, clear()
     * or run the guard above, so no pointer into the array is held
     * across anything that can run Python. */
    for (status = 0; status == 0 && queue->size > 0;) {
        PyObject *callback, *cargs;
        ck_entry e;

        /* One pointer compare per event; the rest serves a flag that
         * holds some other truth, or was deleted. */
        if ((value = SLOT(sim, off_sim_stopped)) != Py_False) {
            status = slot_get(sim, off_sim_stopped, "_stopped") == NULL ? -1
                : flag_is_true(value);
            if (status != 0)
                break;  /* stopped (1), or reading the flag raised (-1) */
        }
        if (!budget_is_inf && !(budget > 0.0))
            break;
        if (!until_is_none) {
            PyObject *head = queue->items[0].time_obj;
            int later;
            /* Exact-float fast path; otherwise defer to Python rich
             * comparison so mixed int/float horizons order exactly as
             * the pure-Python loop's ``time > until``. */
            if (until_is_float && PyFloat_CheckExact(head))
                later = queue->items[0].time > until_d;
            else {
                Py_INCREF(head);
                later = PyObject_RichCompareBool(head, until, Py_GT);
                Py_DECREF(head);
                if (later >= 0 && queue->size == 0)
                    continue;  /* the comparison ran Python */
            }
            if (later != 0) {
                status = later < 0 ? -1 : 0;
                break;
            }
        }

        queue_pop(queue, &e);
        shape = entry_target(&e, &callback, &cargs);
        status = shape < 0 ? -1 : 0;
        if (shape >= 0)
            counts[shape] += 1;
        if (shape >= 0 && shape < DROPPED_TIMER) {
            /* Advance the clock, fire: ``callback(*args)`` takes any
             * iterable, and one that is not raises at the call, after
             * the clock moved and the event counted. */
            slot_set(sim, off_sim_now, e.time_obj);
            if (!budget_is_inf)
                budget -= 1.0;
            if (cargs != NULL && !PyTuple_Check(cargs))
                Py_SETREF(cargs, PySequence_Tuple(cargs));
            if (cargs == NULL && shape != FIRED_TIMER)
                status = -1;
            else
                status = discard(cargs == NULL
                                 ? PyObject_CallNoArgs(callback)
                                 : PyObject_Call(callback, cargs, NULL));
            Py_DECREF(callback);
            Py_XDECREF(cargs);
        }
        entry_clear(&e);
    }

    /* Clean exit: snap the clock to the horizon. */
    if (status >= 0 && !until_is_none) {
        value = slot_get(sim, off_sim_stopped, "_stopped");
        status = value == NULL ? -1 : PyObject_IsTrue(value);
        if (status == 0) {
            if ((value = slot_get(sim, off_sim_now, "_now")) == NULL)
                status = -1;
            else {
                Py_INCREF(value);
                status = PyObject_RichCompareBool(value, until, Py_LT);
                Py_DECREF(value);
                if (status > 0)
                    slot_set(sim, off_sim_now, until);
            }
        }
    }

    /* The Python loop's try/finally, statement for statement: drop the
     * running flag, add to the shape tallies and store the executed
     * counter — the one store of each per run — even when a callback
     * raised.  The first write that fails raises, with the exception in
     * flight as its context, and the writes after it do not happen. */
    {
        PyObject *exc_type, *exc_value, *exc_tb;
        int failed = 0;

        PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
        slot_set(sim, off_sim_running, Py_False);
        for (i = 0; i < N_SHAPES && !failed; i++)
            failed = tally_add(sim, off_sim_shape[i], shape_names[i],
                               counts[i]) < 0;
        executed += counts[FIRED_FAST] + counts[FIRED_TIMER]
            + counts[FIRED_HANDLE];
        if (!failed)
            failed = slot_set_int(sim, off_sim_executed, executed) < 0;
        if (failed) {
            chain_fetched(exc_type, exc_value, exc_tb);
            status = -1;
        }
        else
            PyErr_Restore(exc_type, exc_value, exc_tb);
    }
    Py_DECREF(queue);
    if (status < 0 || (value = slot_get(sim, off_sim_now, "_now")) == NULL)
        return NULL;
    Py_INCREF(value);
    return value;
}

/* --- slot offsets ------------------------------------------------------ */

static Py_ssize_t
resolve_slot(PyObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(type, name);
    Py_ssize_t offset;

    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%s is not a __slots__ member descriptor", name);
        Py_DECREF(descr);
        return -1;
    }
    {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type != T_OBJECT_EX) {
            PyErr_Format(PyExc_TypeError,
                         "%s has unexpected member storage", name);
            Py_DECREF(descr);
            return -1;
        }
        offset = member->offset;
    }
    Py_DECREF(descr);
    return offset;
}

/* Resolve a NULL-name-terminated table of slot offsets on ``type``. */
struct slot_spec {
    const char *name;
    Py_ssize_t *offset;
};

static int
resolve_slots(PyObject *type, const struct slot_spec *spec)
{
    for (; spec->name != NULL; spec++)
        if ((*spec->offset = resolve_slot(type, spec->name)) < 0)
            return -1;
    return 0;
}

/* Set and name ``table_fold``: the fold that returns ``summation``'s
 * 8 bytes (so NaN and -0.0 count) on tables that tell the two apart and
 * walk their corners: 0.0 plain / 2.0 compensated, ten tenths, a one-ulp
 * cancellation, -0.0 (it enters as 0.0 + -0.0), a NaN, an overflow that
 * stays inf, subnormals.  "builtin" when neither does. */
static PyObject *
ck_select_fold(PyObject *module, PyObject *summation)
{
    PyObject *total, *mine, *probes = Py_BuildValue(
        "({i:d,i:d,i:d,i:d}{i:d,i:d,i:d,i:d,i:d,i:d,i:d,i:d,i:d,i:d}"
        "{i:d,i:d,i:d}{i:d}{i:d,i:d}{i:d,i:d,i:d}{i:d,i:d,i:d,i:d})",
        0, 1.0, 1, 1e100, 2, 1.0, 3, -1e100,
        0, .1, 1, .1, 2, .1, 3, .1, 4, .1, 5, .1, 6, .1, 7, .1, 8, .1, 9, .1,
        0, 1.0, 1, 0x1p-53, 2, -1.0,  0, -0.0,  0, Py_HUGE_VAL, 1, -Py_HUGE_VAL,
        0, 1e308, 1, 1e308, 2, -1e308,
        0, 5e-324, 1, -1e-323, 2, 3e-308, 3, -2.5e-308);
    int agrees[] = {0, 1, 1}, fold;
    Py_ssize_t i;

    for (i = 0; probes != NULL && i < PyTuple_GET_SIZE(probes)
            && !PyErr_Occurred(); i++) {
        PyObject *table = PyTuple_GET_ITEM(probes, i);
        total = PyObject_CallFunction(summation, "N", PyDict_Values(table));
        /* Raising where the folds answer agrees with neither. */
        if (total == NULL && PyErr_ExceptionMatches(PyExc_Exception))
            PyErr_Clear();
        for (fold = FOLD_PLAIN; fold <= FOLD_COMPENSATED; fold++) {
            mine = table_sum(table, fold);  /* runs no Python here */
            if (mine == NULL || total == NULL || !PyFloat_CheckExact(total)
                    || memcmp(&((PyFloatObject *)mine)->ob_fval,
                              &((PyFloatObject *)total)->ob_fval,
                              sizeof(double)) != 0)
                agrees[fold] = 0;
            Py_XDECREF(mine);
        }
        Py_XDECREF(total);
    }
    Py_XDECREF(probes);
    if (PyErr_Occurred())
        return NULL;
    table_fold = agrees[FOLD_PLAIN] ? FOLD_PLAIN
        : agrees[FOLD_COMPENSATED] ? FOLD_COMPENSATED : FOLD_BUILTIN;
    return PyModule_AddStringConstant(module, "table_fold",
                                      fold_names[table_fold]) < 0
        ? NULL : PyUnicode_FromString(fold_names[table_fold]);
}

/* For tests: table_sum() as one fold, whichever is selected. */
static PyObject *
ck_table_sum(PyObject *module, PyObject *args)
{
    PyObject *table;
    int compensated;

    if (!PyArg_ParseTuple(args, "O!p:table_sum", &PyDict_Type, &table,
                          &compensated))
        return NULL;
    return table_sum(table, compensated ? FOLD_COMPENSATED : FOLD_PLAIN);
}

/* --- the class sets: one resolver ---------------------------------------
 *
 * Each layer of twins works on one class set: the classes whose
 * ``__slots__`` it reads by offset and whose instances it serves, and
 * the objects it compares by identity.
 * ``repro.core.binding`` hands a table's set to ``resolve``, by name,
 * before the table's first twin; once per process.  An instance is read
 * by offset only once it is known to be exactly its class: at bind for
 * the object bound, per step for the frames, modes and holders a step
 * meets (``exact_slot``). */

static const struct slot_spec timer_slots[] = {
    {"_version", &off_t_version}, {"_armed", &off_t_armed},
    {"_callback", &off_t_callback}, {"_sim", &off_t_sim},
    {"_time", &off_t_time}, {NULL, NULL}};
static const struct slot_spec handle_slots[] = {
    {"_cancelled", &off_h_cancelled}, {"_fired", &off_h_fired},
    {"callback", &off_h_callback}, {"args", &off_h_args}, {NULL, NULL}};
static const struct slot_spec sim_slots[] = {
    {"_now", &off_sim_now}, {"_heap", &off_sim_heap},
    {"_stopped", &off_sim_stopped}, {"_running", &off_sim_running},
    {"_events_executed", &off_sim_executed},
    {"_scheduled", &off_sim_scheduled},
    {"_cancelled_events", &off_sim_cancelled},
    {"_fast_fired", &off_sim_shape[FIRED_FAST]},
    {"_timers_fired", &off_sim_shape[FIRED_TIMER]},
    {"_handles_fired", &off_sim_shape[FIRED_HANDLE]},
    {"_timers_dropped", &off_sim_shape[DROPPED_TIMER]},
    {"_handles_dropped", &off_sim_shape[DROPPED_HANDLE]}, {NULL, NULL}};
static const struct slot_spec radio_slots[] = {
    {"_arrivals", &off_r_arrivals}, {"_state", &off_r_state},
    {"_locked", &off_r_locked}, {"_locked_power", &off_r_locked_power},
    {"_locked_tracker", &off_r_locked_tracker},
    {"_cca_busy", &off_r_cca_busy},
    {"_cca_threshold_watts", &off_r_cca_threshold},
    {"_capture", &off_r_capture}, {"_noise_watts", &off_r_noise},
    {"config", &off_r_config},
    {"decodable_modes", &off_r_decodable}, {"_sim", &off_r_sim},
    {"_rx_timer", &off_r_rx_timer}, {"_tracker", &off_r_tracker},
    {"on_cca_busy", &off_r_on_cca_busy},
    {"on_cca_idle", &off_r_on_cca_idle},
    {"on_state_change", &off_r_on_state_change},
    {"on_rx_end", &off_r_on_rx_end}, {"error_model", &off_r_error_model},
    {"_rng", &off_r_rng}, {"_trace", &off_r_trace},
    {"medium", &off_r_medium}, {"standard", &off_r_standard},
    {"_position", &off_r_position}, {"_channel_id", &off_r_channel},
    {"tx_power_watts", &off_r_tx_power},
    {"_tx_mode_names", &off_r_tx_modes}, {"_tx_epoch", &off_r_tx_epoch},
    {"_tx_done", &off_r_tx_done}, {"on_tx_end", &off_r_on_tx_end},
    {NULL, NULL}};
static const struct slot_spec tracker_slots[] = {
    {"signal_watts", &off_s_signal}, {"noise_watts", &off_s_noise},
    {"_start", &off_s_start}, {"_last_time", &off_s_last},
    {"_current_interference", &off_s_current},
    {"_energy", &off_s_energy}, {NULL, NULL}};
static const struct slot_spec transmission_slots[] = {
    {"mode", &off_tx_mode}, {"duration", &off_tx_duration},
    {"size_bits", &off_tx_size_bits}, {"payload", &off_tx_payload},
    {"id", &off_tx_id}, {"sender", &off_tx_sender},
    {"power_watts", &off_tx_power}, {"start_time", &off_tx_start},
    {NULL, NULL}};
static const struct slot_spec mode_slots[] = {
    {"name", &off_pm_name}, {"modulation", &off_pm_modulation},
    {NULL, NULL}};
static const struct slot_spec modulation_slots[] = {
    {"processing_gain_db", &off_mod_field[0]},
    {"coding_gain_db", &off_mod_field[1]},
    {"bits_per_symbol", &off_mod_field[2]},
    {"code_rate", &off_mod_field[3]}, {NULL, NULL}};
static const struct slot_spec capture_slots[] = {
    {"enabled", &off_cap_enabled}, {"threshold_db", &off_cap_threshold},
    {NULL, NULL}};
static const struct slot_spec config_slots[] = {
    {"preamble_detection_snr_db", &off_cfg_preamble}, {NULL, NULL}};
static const struct slot_spec tracelog_slots[] = {
    {"enabled", &off_tl_enabled}, {NULL, NULL}};
static const struct slot_spec digest_slots[] = {
    {"enabled", &off_td_enabled}, {NULL, NULL}};
static const struct slot_spec mac_slots[] = {
    {"sim", &off_m_sim}, {"radio", &off_m_radio}, {"nav", &off_m_nav},
    {"_current", &off_m_current},
    {"_backoff_remaining", &off_m_backoff_remaining},
    {"_ifs", &off_m_ifs}, {"_countdown", &off_m_countdown},
    {"_countdown_anchor", &off_m_anchor},
    {"_countdown_remaining", &off_m_remaining},
    {"_pending_send", &off_m_pending_send},
    {"_tx_continuation", &off_m_tx_continuation},
    {"_awaiting", &off_m_awaiting}, {"_use_eifs", &off_m_use_eifs},
    {"_slot_time", &off_m_slot_time}, {"_difs", &off_m_difs},
    {"_eifs", &off_m_eifs}, {"sniffer", &off_m_sniffer},
    {"counters", &off_m_counters}, {"_controllers", &off_m_controllers},
    {"_address_value", &off_m_address_value},
    {"_rate_factory", &off_m_rate_factory}, {NULL, NULL}};
static const struct slot_spec counter_slots[] = {
    {"_counts", &off_c_counts}, {NULL, NULL}};
static const struct slot_spec nav_slots[] = {
    {"_sim", &off_n_sim}, {"_until", &off_n_until},
    {"_on_expire", &off_n_on_expire}, {"_timer", &off_n_timer},
    {NULL, NULL}};

/* One member of a class set: the name ``resolve`` finds it by, where
 * the twins read it, and its check. */
struct member {
    const char *name;
    PyObject **keep;                /* a strong reference, NULL unbound */
    enum { M_TYPE, M_OBJECT } kind;
    const struct slot_spec *slots;  /* M_TYPE: offsets resolved on it */
};

#define KEEP(target) ((PyObject **)&(target))
static const struct member kernel_set[] = {
    {"Timer", KEEP(timer_type), M_TYPE, timer_slots},
    {"EventHandle", KEEP(handle_type), M_TYPE, handle_slots},
    {"SimulationError", &simulation_error, M_OBJECT, NULL},
    {"Simulator", KEEP(sim_type), M_TYPE, sim_slots},
    {NULL, NULL, 0, NULL}};
static const struct member phy_set[] = {
    {"Radio", KEEP(radio_type), M_TYPE, radio_slots},
    {"SinrTracker", KEEP(sinr_type), M_TYPE, tracker_slots},
    {"CaptureModel", KEEP(capture_type), M_TYPE, capture_slots},
    {"BerErrorModel", KEEP(ber_type), M_TYPE, NULL},
    {"Modulation", KEEP(modulation_type), M_TYPE, modulation_slots},
    {"Transmission", KEEP(tx_type), M_TYPE, transmission_slots},
    {"PhyMode", KEEP(phymode_type), M_TYPE, mode_slots},
    {"RadioConfig", KEEP(config_type), M_TYPE, config_slots},
    {"TraceLog", KEEP(trace_type), M_TYPE, tracelog_slots},
    {"TraceDigest", KEEP(digest_type), M_TYPE, digest_slots},
    {"Transmission._ids", &tx_ids, M_OBJECT, NULL},
    {"Medium", KEEP(medium_type), M_TYPE, NULL},
    {"IDLE", &st_idle, M_OBJECT, NULL},
    {"RX", &st_rx, M_OBJECT, NULL}, {"TX", &st_tx, M_OBJECT, NULL},
    {"SLEEP", &st_sleep, M_OBJECT, NULL},
    {"RX.value", &st_rx_value, M_OBJECT, NULL},
    {"IDLE.value", &st_idle_value, M_OBJECT, NULL},
    {"TX.value", &st_tx_value, M_OBJECT, NULL},
    {NULL, NULL, 0, NULL}};
static const struct member mac_set[] = {
    {"DcfMac", KEEP(mac_type), M_TYPE, mac_slots},
    {"Dot11Frame", KEEP(frame_type), M_TYPE, NULL},
    {"Counter", KEEP(counter_type), M_TYPE, counter_slots},
    {"Nav", KEEP(nav_type), M_TYPE, nav_slots},
    {"_UNFED_SNR", &unfed_snr, M_OBJECT, NULL},
    {NULL, NULL, 0, NULL}};
#undef KEEP

static const struct {
    const char *name;
    const struct member *members;
} class_sets[] = {{"kernel", kernel_set}, {"phy", phy_set},
                  {"mac", mac_set}};

/* Check ``value`` as ``m`` and resolve what it carries; 0 or -1. */
static int
resolve_member(const struct member *m, PyObject *value)
{
    if (m->kind == M_TYPE && !PyType_Check(value)) {
        PyErr_Format(PyExc_TypeError, "%s is %R, not a class", m->name,
                     value);
        return -1;
    }
    if (m->slots != NULL && resolve_slots(value, m->slots) < 0)
        return -1;
    return 0;
}

static PyObject *
ck_resolve(PyObject *module, PyObject *args)
{
    const size_t sets = sizeof(class_sets) / sizeof(class_sets[0]);
    const char *name;
    PyObject *members, *value;
    const struct member *m;
    size_t i = 0;

    if (!PyArg_ParseTuple(args, "sO!:resolve", &name, &PyDict_Type,
                          &members))
        return NULL;
    while (i < sets && strcmp(class_sets[i].name, name) != 0)
        i++;
    if (i == sets) {
        PyErr_Format(PyExc_ValueError, "no class set named '%s'", name);
        return NULL;
    }
    /* Unbind first: a half-resolved set must not serve a twin. */
    for (m = class_sets[i].members; m->name != NULL; m++)
        Py_CLEAR(*m->keep);
    for (m = class_sets[i].members; m->name != NULL; m++) {
        if ((value = PyDict_GetItemString(members, m->name)) == NULL) {
            PyErr_Format(PyExc_KeyError, "the %s class set needs '%s'",
                         name, m->name);
            return NULL;
        }
        if (resolve_member(m, value) < 0)
            return NULL;
    }
    for (m = class_sets[i].members; m->name != NULL; m++)
        *m->keep = Py_NewRef(PyDict_GetItemString(members, m->name));
    Py_RETURN_NONE;
}

/* Simulator._queue's twin: an EventQueue, its push / pop / next_seq,
 * and the compiled arm and fan_out. */
static PyObject *
ck_queue(PyObject *module, PyObject *sim)
{
    PyObject *q = PyObject_CallNoArgs((PyObject *)&EventQueue_Type);

    /* Interned names: a fresh string per lookup would be kept by the
     * type attribute cache, a few blocks per simulator. */
    return q == NULL ? NULL : Py_BuildValue(
        "(NNNNNN)", q, PyObject_GetAttr(q, s_push), PyObject_GetAttr(q, s_pop),
        PyObject_GetAttr(q, s_next_seq), PyObject_GetAttr(module, s_arm),
        PyObject_GetAttr(module, s_fan_out));
}

/* --- module ------------------------------------------------------------ */

static PyMethodDef ck_methods[] = {
    {"resolve", ck_resolve, METH_VARARGS,
     "resolve(name, members): resolve the class set a table's twins work\n"
     "on (\"kernel\", \"phy\" or \"mac\"; members by the names the\n"
     "twins read them by): slot offsets, the objects compared by\n"
     "identity. repro.core.binding calls it once per set."},
    {"_queue", ck_queue, METH_O,
     "_queue(sim): compiled twin of Simulator._queue."},
    {"run", ck_run, METH_VARARGS,
     "run(sim, until=None, max_events=None) -> float\n"
     "Compiled twin of Simulator.run(); byte-identical event sequence."},
    {"select_fold", ck_select_fold, METH_O,
     "select_fold(summation) -> name: set table_fold to the C fold that\n"
     "returns summation's bits (builtins.sum's, when the module loads)."},
    {"table_sum", ck_table_sum, METH_VARARGS,
     "table_sum(dict, compensated): the edges' table sum as one fold (tests)."},
    {"arm", (PyCFunction)(void (*)(void))ck_arm, METH_FASTCALL,
     "arm(timer, time): compiled twin of engine._arm."},
    {"fan_out", (PyCFunction)(void (*)(void))ck_fan_out, METH_FASTCALL,
     "fan_out(sim, entries, transmission, duration[, start]): compiled\n"
     "twin of engine._fan_out."},
    {"arrival_begins", (PyCFunction)(void (*)(void))ck_arrival_begins,
     METH_FASTCALL,
     "arrival_begins(radio, transmission, power_watts): compiled twin of\n"
     "Radio.arrival_begins (repro.core.binding binds it)."},
    {"arrival_ends", (PyCFunction)(void (*)(void))ck_arrival_ends,
     METH_FASTCALL,
     "arrival_ends(radio, transmission): compiled twin of\n"
     "Radio.arrival_ends (repro.core.binding binds it)."},
    /* Named as their references are: whatever labels a heap entry or an
     * upcall by its callback's __name__ must not learn which kernel ran. */
    {"_reception_complete", ck_reception_complete, METH_O,
     "_reception_complete(radio): compiled twin of\n"
     "Radio._reception_complete (repro.core.binding binds it)."},
    {"transmit", (PyCFunction)(void (*)(void))ck_transmit, METH_FASTCALL,
     "transmit(radio, payload, size_bits, mode): compiled twin of\n"
     "Radio.transmit (repro.core.binding binds it)."},
    {"_tx_complete", (PyCFunction)(void (*)(void))ck_tx_complete,
     METH_FASTCALL,
     "_tx_complete(radio, epoch=0): compiled twin of Radio._tx_complete."},
    {"_maybe_start_ifs", ck_maybe_start_ifs, METH_O,
     "_maybe_start_ifs(mac): compiled twin of DcfMac._maybe_start_ifs."},
    {"_cancel_access_timers", ck_cancel_access_timers, METH_O,
     "_cancel_access_timers(mac): compiled twin of\n"
     "DcfMac._cancel_access_timers."},
    {"_ifs_expired", ck_ifs_expired, METH_O,
     "_ifs_expired(mac): compiled twin of DcfMac._ifs_expired."},
    {"phy_rx_end", (PyCFunction)(void (*)(void))ck_phy_rx_end, METH_FASTCALL,
     "phy_rx_end(mac, payload, success, snr_db, mode): compiled twin of\n"
     "DcfMac.phy_rx_end for corrupt and overheard frames; the method\n"
     "itself for every other."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ck_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._ckernel",
    "Compiled event-kernel inner loop (see repro.core.engine).",
    -1,
    ck_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *module;

    const struct {
        PyObject **target;
        const char *text;
    } names[] = {
        {&s_now, "_now"}, {&s_values, "values"},
        {&s_should_capture, "should_capture"},
        {&s_abort_locked, "_abort_locked"}, {&s_try_lock, "_try_lock"},
        {&s_refresh_interference, "_refresh_interference"},
        {&s_reception_complete, "_reception_complete"},
        {&s_update_cca, "_update_cca"}, {&s_trace_rx_end, "_trace_rx_end"},
        {&s_sinr_db, "sinr_db"}, {&s_frame_survives, "frame_survives"},
        {&s_packet_error_rate, "packet_error_rate"}, {&s_random, "random"},
        {&s_maybe_start_ifs, "_maybe_start_ifs"},
        {&s_cancel_access_timers, "_cancel_access_timers"},
        {&s_ifs_expired, "_ifs_expired"}, {&s_access_won, "_access_won"},
        {&s_arrival_begins, "arrival_begins"},
        {&s_arrival_ends, "arrival_ends"},
        {&s_phy_rx_end, "phy_rx_end"}, {&s_rx_verdict, "rx_verdict"},
        {&s_incr, "incr"},
        {&s_rx_corrupt, "rx_corrupt"}, {&s_nav_updates, "nav_updates"},
        {&s_set_until, "set_until"}, {&s_until, "_until"},
        {&s_standard, "standard"},
        {&s_on_snr_measurement, "on_snr_measurement"}, {&s_push, "push"},
        {&s_pop, "pop"}, {&s_next_seq, "next_seq"}, {&s_arm, "arm"},
        {&s_fan_out, "fan_out"}, {&s_transmit, "transmit"},
        {&s_tx_complete, "_tx_complete"}, {&s_sim, "sim"},
        {&s_plans, "_plans"}, {&s_plan_hits, "plan_hits"},
        {&s_plan_misses, "plan_misses"}, {&s_compile_plan, "_compile_plan"},
        {&s_frame_airtime, "frame_airtime"},
        {&s_schedule_fast, "schedule_fast"},
        {&s_trace_tx_start, "_trace_tx_start"},
        {&s_observers, "observers"}};
    size_t i;

    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if ((*names[i].target
                = PyUnicode_InternFromString(names[i].text)) == NULL)
            return NULL;
    if ((float_zero = PyFloat_FromDouble(0.0)) == NULL
            || (int_zero = PyLong_FromLong(0)) == NULL
            || (int_one = PyLong_FromLong(1)) == NULL
            || (builtin_sum = PyMapping_GetItemString(PyEval_GetBuiltins(),
                                                      "sum")) == NULL)
        return NULL;

    if (PyType_Ready(&EventQueue_Type) < 0)
        return NULL;
    module = PyModule_Create(&ck_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "KERNEL_NAME", "c") < 0
            || PyModule_AddIntConstant(module, "KERNEL_ABI", 14) < 0
            || PyModule_AddObjectRef(module, "EventQueue",
                                     (PyObject *)&EventQueue_Type) < 0
            || discard(ck_select_fold(module, builtin_sum)) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
