/* Compiled event kernel for repro.core.engine.
 *
 * Six things live here, each the C twin of a Python reference that
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
 *    entries, ``EventHandle`` entries) and the O(1)
 *    scheduled/executed/cancelled counter bookkeeping.
 * 2. ``arm`` / ``fan_out`` — ``engine._arm`` / ``engine._fan_out``: the
 *    two places the layers above build heap entries (one timer arm;
 *    two raw entries per receiver of a compiled fan-out plan), pushed
 *    here as structs.
 * 3. ``arrival_begins`` / ``arrival_ends`` — the receive
 *    edges of ``repro.phy.transceiver.Radio`` (with ``_try_lock``, the
 *    capture test, ``_refresh_interference`` and the CCA tail), working
 *    on ``Radio``'s and ``SinrTracker``'s ``__slots__`` by offset, the
 *    way the loop works on ``Timer``'s.  ``Medium`` binds them per
 *    radio with ``types.MethodType`` (see ``bind_phy``).
 * 4. ``_reception_complete`` — the reception tail of
 *    ``Radio``: unlock, the SINR arithmetic of ``SinrTracker.sinr_db``,
 *    the PER out of ``phy.error_models._per_cache`` (the dict, the
 *    ``(snr, bits, Modulation.memo_id)`` key and the limit rule
 *    ``BerErrorModel.frame_survives`` uses; a miss calls the model's
 *    ``packet_error_rate``), one ``rng.random()``, the CCA tail and
 *    ``on_rx_end``.  ``Medium`` hands it to a plain radio's
 *    reception-end timer.
 * 5. ``_maybe_start_ifs`` / ``_cancel_access_timers`` / ``_ifs_expired``
 *    / ``_fire`` / ``phy_rx_end`` — the carrier-sense slots of
 *    ``repro.mac.dcf.DcfMac`` and ``repro.mac.nav.Nav`` that are pure
 *    functions of MAC, NAV, radio and timer ``__slots__``, and the frame
 *    demux for the two verdicts that need nothing else: a corrupt frame
 *    (EIFS flag, ``rx_corrupt``) and one overheard by a third party (the
 *    transmitter's rate controller, the NAV, ``nav_updates``), read off
 *    the per-frame ``Dot11Frame.rx_verdict`` (see ``bind_mac``).  A
 *    plain ``DcfMac`` hands them to its radio's CCA and reception-end
 *    upcalls, its NAV and its IFS timer.  A frame addressed to the
 *    station or to a group, ``_access_won`` and the transmit path stay
 *    Python: C owns time and energy, Python owns the frames addressed
 *    to it.
 *
 * 4 and 5 are exported under their references' ``__name__``: whatever
 * labels a heap entry or an upcall by its callback must not learn which
 * kernel ran.
 *
 * The queue is the one piece of simulation state the extension owns.
 * Everything else stays where the pure-Python code keeps it (the clock,
 * the flags and the counters are the ``Simulator`` ``__slots__`` Python
 * code reads and telemetry samples, reached here by offset; a radio's
 * table is the same dict), and every Python scheduling site reaches the
 * queue through ``sim._push`` / ``sim._pop`` / ``sim._next_seq``, so
 * compiled and interpreted pieces mix freely — a ``pin_python_kernel``
 * simulator runs the Python loop over this queue — and the Python code
 * remains the reference implementation.
 *
 * Bit-identity contract of the queue and the loop (KEEP IN SYNC with
 * engine.Simulator.run):
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
 * - The run-until branch (``max_events is None and until is not
 *   None``) keeps the executed-events counter in a local flushed at
 *   loop exit, so a mid-run callback reads the same (stale) figure the
 *   Python fast branch exposes — telemetry's sampled
 *   ``kernel/events_executed`` series byte-compares across kernels
 *   because of this, not despite it.  Every other branch flushes the
 *   counter per event, exactly like the Python generic branch.
 * - Lazy drops (cancelled handles, superseded timer versions) touch no
 *   counters; the clock is written before the callback fires; the
 *   clock snaps to ``until`` only on a clean non-stopped exit; the
 *   ``_running`` flag and counter flush survive a raising callback —
 *   including one raised inside a compiled edge, tail or slot.
 *
 * Bit-identity contract of the primitives, the edges, the tail and the
 * slots (KEEP IN SYNC with engine._arm / engine._fan_out and the Radio,
 * DcfMac and Nav methods; held by tests/phy/test_edge_parity.py,
 * tests/mac/test_access_parity.py and tests/core/test_kernel_parity.py):
 *
 * - The same statements in the same order: one seq per entry, drawn
 *   from the queue's counter (the one ``sim._next_seq`` is bound to) at
 *   the point the Python code calls ``_next_seq()``; the same counter
 *   increments; the same dict insertions and deletions, so table and
 *   memo order are the same; exactly one ``rng.random()`` per decoded
 *   frame, drawn after the PER is known (a miss that raises draws
 *   nothing).
 * - The same floats: ``now + (delay + duration)`` parenthesized as
 *   written, ``10.0 * log10(ratio)`` with libm's ``log10`` (what
 *   ``math.log10`` calls), the countdown deadline as the left fold
 *   ``anchor + slot + slot + ...`` in a loop of doubles, no fused
 *   multiply-add (the build passes ``-ffp-contract=off``), and every
 *   table sum as ``builtins.sum`` takes it: a left fold in C doubles,
 *   plain (CPython 3.11) or Neumaier-compensated (3.12 on), whichever
 *   ``sum()`` itself — asked once, as the module loads: ``select_fold``
 *   — returns the bits of.  Where neither does, a table is empty or
 *   holds more than floats, ``sum()`` is called: speed lost, never bits.
 * - C handles the canonical shapes only (an exact ``Radio`` /
 *   ``DcfMac`` / ``Nav`` / ``Timer`` / ``Dot11Frame`` / ``Counter``,
 *   exact floats and machine-word ints, canonical bools, exact dicts,
 *   an exact ``SinrTracker`` / ``CaptureModel`` / ``BerErrorModel``).  Anything else is handed to the Python method
 *   *before* the step in question has changed anything: the whole call
 *   for a non-float power, a foreign object or an off-type MAC field,
 *   one step (``_try_lock``, ``_refresh_interference``,
 *   ``should_capture``, ``sinr_db``, ``frame_survives``,
 *   ``_update_cca``, ``Nav.set_until``, ``Counter.incr``) for an
 *   off-type field met after the first write;
 *   the rare ``_abort_locked``, a fresh backoff draw
 *   (``_backoff_remaining is None``), ``_access_won`` and the trace
 *   record always run in Python.  So the exception a malformed input
 *   raises, and the state it leaves, are the reference's own.
 * - Upcalls (``on_cca_busy`` / ``on_cca_idle`` / ``on_state_change`` /
 *   ``on_rx_end`` / ``_on_expire``, the demux's ``_rate_factory`` and
 *   ``on_snr_measurement``) fire at the same points with the same state
 *   already written — the tail's idle edge *before* ``on_rx_end``, as
 *   in the reference; an exception from one propagates unchanged.  One
 *   call is skipped by definition: a controller whose class inherits
 *   ``RateController.on_snr_measurement`` — the documented no-op —
 *   is not fed (``IdealSnr`` and every overriding class are).  No borrowed pointer is used across a call
 *   that can run Python: slots are re-read after it, and what must span
 *   it (the table, the upcall, the capture object, the frame, the
 *   tracker) is held by a strong reference.
 *
 * NaN event times are unrepresentable (every scheduler rejects them,
 * and so does the queue), so comparing the keys as doubles is exact.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

/* --- module state (installed once from repro.core.engine) ------------- */

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

/* ``sim._heap`` (borrowed) of a simulator this kernel serves; NULL with
 * TypeError for any other — a ``kernel="python"`` simulator keeps the
 * reference list, which only Python code pushes into. */
static EventQueue *
sim_queue(PyObject *sim)
{
    PyObject *heap = is_sim(sim) ? SLOT(sim, off_sim_heap) : NULL;

    if (heap == NULL || Py_TYPE(heap) != &EventQueue_Type) {
        PyErr_SetString(PyExc_TypeError, "expected a kernel='c' Simulator "
                        "(one whose _heap is a _ckernel.EventQueue)");
        return NULL;
    }
    return (EventQueue *)heap;
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

static PyObject *
ck_fan_out(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *sim, *transmission, *duration;
    PyObject *now, *entries = NULL, *ends_args = NULL;
    EventQueue *queue;
    Py_ssize_t i, n = 0;
    int failed = 1;

    if (nargs != 4 && nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "fan_out(sim, entries, "
                        "transmission, duration[, start])");
        return NULL;
    }
    sim = args[0];
    transmission = args[2];
    duration = args[3];
    if ((queue = sim_queue(sim)) == NULL
            || (now = nargs == 5 && args[4] != Py_None ? args[4]
                : slot_get(sim, off_sim_now, "_now")) == NULL)
        return NULL;
    Py_INCREF(now);
    Py_INCREF(queue);
    entries = PySequence_Fast(args[1], "fan_out() needs a sequence of "
                              "(begins, ends, rx_power, delay) entries");
    if (entries == NULL)
        goto done;
    /* Every arrival_ends call takes the same arguments; one tuple. */
    if ((ends_args = PyTuple_Pack(1, transmission)) == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(entries);
    for (i = 0; i < n; i++) {
        PyObject *entry = PySequence_Fast_GET_ITEM(entries, i);
        PyObject *delay, *begins_args, *tail;
        int status;

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
        status = push_raw(queue, num_add(now, delay),
                          PyTuple_GET_ITEM(entry, 0), begins_args);
        Py_DECREF(begins_args);
        if (status < 0)
            goto done;
        /* now + (delay + duration), NOT (now + delay) + duration: the
         * ulp between them reorders CCA edges. */
        if ((tail = num_add(delay, duration)) == NULL)
            goto done;
        status = push_raw(queue, num_add(now, tail),
                          PyTuple_GET_ITEM(entry, 1), ends_args);
        Py_DECREF(tail);
        if (status < 0)
            goto done;
    }
    if (counter_add(sim, off_sim_scheduled, "_scheduled", 2 * n) == 0)
        failed = 0;
done:
    Py_XDECREF(ends_args);
    Py_XDECREF(entries);
    Py_DECREF(queue);
    Py_DECREF(now);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

/* --- PHY receive edges (C twins of Radio.arrival_begins / _ends) ------ */

/* Bound by bind_phy() at the first Medium on a C-kernel simulator. */
static PyTypeObject *radio_type = NULL, *sinr_type = NULL;
static PyTypeObject *capture_type = NULL;
static PyObject *st_idle, *st_rx, *st_tx, *st_sleep;  /* RadioState members */
static PyObject *st_rx_value, *st_idle_value;         /* their .value */
static PyObject *builtin_sum;
static PyObject *float_zero;
/* phy.error_models: the exact BerErrorModel class and the module's PER
 * memo, which the reception tail shares with BerErrorModel.frame_survives
 * (same dict, same key, same limit rule). */
static PyTypeObject *ber_type = NULL;
static PyObject *per_cache = NULL;
static Py_ssize_t per_cache_limit = 0;

static PyObject *s_now, *s_values, *s_mode, *s_name, *s_duration, *s_enabled;
static PyObject *s_threshold_db, *s_should_capture, *s_preamble_snr;
static PyObject *s_abort_locked, *s_try_lock, *s_refresh_interference;
static PyObject *s_reception_complete, *s_update_cca, *s_trace_rx_end;
static PyObject *s_sinr_db, *s_frame_survives, *s_packet_error_rate;
static PyObject *s_random, *s_size_bits, *s_modulation, *s_payload;
static PyObject *s_maybe_start_ifs, *s_cancel_access_timers, *s_ifs_expired;
static PyObject *s_access_won, *s_fire, *s_arrival_begins, *s_arrival_ends;
static PyObject *s_memo_id, *s_phy_rx_end, *s_rx_verdict, *s_counts, *s_incr;
static PyObject *s_rx_corrupt, *s_nav_updates, *s_set_until, *s_until;
static PyObject *s_standard, *s_on_snr_measurement;

static Py_ssize_t off_r_arrivals, off_r_state, off_r_locked;
static Py_ssize_t off_r_locked_power, off_r_locked_tracker, off_r_cca_busy;
static Py_ssize_t off_r_cca_threshold, off_r_capture, off_r_snr_cache;
static Py_ssize_t off_r_noise, off_r_config, off_r_decodable, off_r_sim;
static Py_ssize_t off_r_rx_timer, off_r_tracker, off_r_on_cca_busy;
static Py_ssize_t off_r_on_cca_idle, off_r_on_state_change;
static Py_ssize_t off_r_on_rx_end, off_r_error_model, off_r_rng, off_r_trace;
static Py_ssize_t off_s_signal, off_s_noise, off_s_start, off_s_last;
static Py_ssize_t off_s_current, off_s_energy;

static inline int
is_float(PyObject *value)
{
    return value != NULL && PyFloat_CheckExact(value);
}

/* Comparison with the exact-float fast path; 1/0/-1. */
static int
num_cmp(PyObject *a, PyObject *b, int op)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b)) {
        double da = PyFloat_AS_DOUBLE(a), db = PyFloat_AS_DOUBLE(b);
        return op == Py_GE ? da >= db : da < db;
    }
    return PyObject_RichCompareBool(a, b, op);
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

/* A rare or off-type step runs its Python reference method instead
 * (every call site is reached before the step mutates anything that
 * the method would mutate again).  0 or -1. */
static int
run_reference(PyObject *self, PyObject *name, PyObject *a, PyObject *b)
{
    return discard(PyObject_CallMethodObjArgs(self, name, a, b, NULL));
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
        return run_reference(self, s_refresh_interference, NULL, NULL);
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
        return run_reference(self, s_refresh_interference, NULL, NULL);
    if (interference == 0.0 && PyFloat_AS_DOUBLE(current) == 0.0)
        return 0;  /* zero-rate segment either way */
    if ((now = radio_now(self)) == NULL)
        return -1;
    if (!PyFloat_CheckExact(now))
        return run_reference(self, s_refresh_interference, NULL, NULL);
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
}

/* CaptureModel.should_capture for an exact CaptureModel with float
 * fields; 1/0, -1 on error, -2 when the method itself must be asked. */
static int
capture_verdict(PyObject *capture, PyObject *locked_power, PyObject *power)
{
    PyObject *field;
    int result;

    if (Py_TYPE(capture) != capture_type || !PyFloat_CheckExact(locked_power))
        return -2;
    if ((field = PyObject_GetAttr(capture, s_enabled)) == NULL)
        return -1;
    result = PyObject_IsTrue(field);
    Py_DECREF(field);
    if (result <= 0)
        return result;
    if (PyFloat_AS_DOUBLE(locked_power) <= 0.0)
        return 1;
    if ((field = PyObject_GetAttr(capture, s_threshold_db)) == NULL)
        return -1;
    result = !PyFloat_CheckExact(field) ? -2
        : linear_to_db(PyFloat_AS_DOUBLE(power)
                       / PyFloat_AS_DOUBLE(locked_power))
          >= PyFloat_AS_DOUBLE(field);
    Py_DECREF(field);
    return result;
}

/* ``self._capture.should_capture(self._locked_power, power)``; 1/0/-1. */
static int
should_capture(PyObject *self, PyObject *power)
{
    PyObject *capture = slot_get(self, off_r_capture, "_capture");
    PyObject *locked_power, *verdict;
    int result;

    if (capture == NULL
            || (locked_power = slot_get(self, off_r_locked_power,
                                        "_locked_power")) == NULL)
        return -1;
    Py_INCREF(capture);
    Py_INCREF(locked_power);
    result = capture_verdict(capture, locked_power, power);
    if (result == -2) {
        verdict = PyObject_CallMethodObjArgs(capture, s_should_capture,
                                             locked_power, power, NULL);
        result = verdict == NULL ? -1 : PyObject_IsTrue(verdict);
        Py_XDECREF(verdict);
    }
    Py_DECREF(locked_power);
    Py_DECREF(capture);
    return result;
}

/* The first half of Radio._try_lock — a preamble this radio can see,
 * of a PHY it decodes?  1/0, -1 on error, -2 when the reference must
 * be asked (nothing has been touched yet). */
static int
preamble_decodable(PyObject *self, PyObject *transmission, PyObject *power)
{
    PyObject *cache = SLOT(self, off_r_snr_cache);
    PyObject *noise = SLOT(self, off_r_noise);
    PyObject *holder, *snr, *value;
    int verdict;

    if (cache == NULL || !PyDict_CheckExact(cache) || !is_float(noise))
        return -2;
    /* Preamble SNR, memoized on the exact receive power (float keys:
     * no Python runs while the cache and the noise are borrowed). */
    if ((snr = PyDict_GetItemWithError(cache, power)) != NULL)
        Py_INCREF(snr);
    else {
        double noise_d = PyFloat_AS_DOUBLE(noise);
        if (PyErr_Occurred())
            return -1;
        snr = PyFloat_FromDouble(
            noise_d > 0 ? linear_to_db(PyFloat_AS_DOUBLE(power) / noise_d)
                        : Py_HUGE_VAL);
        if (snr == NULL)
            return -1;
        if (PyDict_GET_SIZE(cache) >= 4096)
            PyDict_Clear(cache);
        if (PyDict_SetItem(cache, power, snr) < 0) {
            Py_DECREF(snr);
            return -1;
        }
    }
    /* snr_db < self.config.preamble_detection_snr_db */
    if ((holder = slot_get(self, off_r_config, "config")) == NULL) {
        Py_DECREF(snr);
        return -1;
    }
    Py_INCREF(holder);
    value = PyObject_GetAttr(holder, s_preamble_snr);
    Py_DECREF(holder);
    verdict = value == NULL ? -1 : num_cmp(snr, value, Py_LT);
    Py_XDECREF(value);
    Py_DECREF(snr);
    if (verdict != 0)
        return verdict < 0 ? -1 : 0;  /* too weak to see a preamble */
    /* transmission.mode.name in self.decodable_modes */
    if ((value = PyObject_GetAttr(transmission, s_mode)) == NULL)
        return -1;
    Py_SETREF(value, PyObject_GetAttr(value, s_name));
    if (value == NULL)
        return -1;
    if ((holder = slot_get(self, off_r_decodable,
                           "decodable_modes")) == NULL) {
        Py_DECREF(value);
        return -1;
    }
    Py_INCREF(holder);
    verdict = PySequence_Contains(holder, value);  /* 0: foreign PHY */
    Py_DECREF(holder);
    Py_DECREF(value);
    return verdict;
}

/* Radio._try_lock; 0 or -1.  ``arrivals`` is the edge's strong
 * reference to the table the new arrival already sits in. */
static int
try_lock(PyObject *self, PyObject *arrivals, PyObject *transmission,
         PyObject *power)
{
    PyObject *value, *timer, *tracker, *noise, *now;
    double interference = 0.0;
    int status = preamble_decodable(self, transmission, power);

    if (status == -2)
        return run_reference(self, s_try_lock, transmission, power);
    if (status <= 0)
        return status;
    if (PyDict_GET_SIZE(arrivals) != 1) {
        /* sum(arrivals.values()) - power; alone, exactly 0.0. */
        if ((value = table_sum(arrivals, table_fold)) == NULL)
            return -1;
        if (!PyFloat_CheckExact(value)) {
            Py_DECREF(value);
            return run_reference(self, s_try_lock, transmission, power);
        }
        interference = PyFloat_AS_DOUBLE(value) - PyFloat_AS_DOUBLE(power);
        Py_DECREF(value);
    }
    if ((value = PyObject_GetAttr(transmission, s_duration)) == NULL)
        return -1;
    /* Read after the last call that could run Python, and checked
     * before the first statement the reference could not repeat. */
    timer = SLOT(self, off_r_rx_timer);
    tracker = SLOT(self, off_r_tracker);
    noise = SLOT(self, off_r_noise);
    now = radio_now(self);
    if (now == NULL || !PyFloat_CheckExact(now) || !PyFloat_CheckExact(value)
            || timer == NULL || tracker == NULL || noise == NULL
            || Py_TYPE(tracker) != sinr_type) {
        Py_DECREF(value);
        if (now == NULL)
            return -1;
        return run_reference(self, s_try_lock, transmission, power);
    }
    /* The tail lands one airtime after the energy started arriving;
     * arming an exact float runs no Python, so the borrowed tracker,
     * noise and clock are still good below. */
    Py_SETREF(value, PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                        + PyFloat_AS_DOUBLE(value)));
    status = value == NULL ? -1 : arm_impl(timer, value);
    Py_XDECREF(value);
    if (status == 0
            && (value = PyFloat_FromDouble(interference)) == NULL)
        status = -1;
    if (status == 0) {
        slot_set(self, off_r_locked, transmission);
        slot_set(self, off_r_locked_power, power);
        /* The tracker re-initialized as SinrTracker.__init__ sets it. */
        slot_set(tracker, off_s_signal, power);
        slot_set(tracker, off_s_noise, noise);
        slot_set(tracker, off_s_start, now);
        slot_set(tracker, off_s_last, now);
        slot_set(tracker, off_s_current, value);
        Py_DECREF(value);
        slot_set(tracker, off_s_energy, float_zero);
        slot_set(self, off_r_locked_tracker, tracker);
        slot_set(self, off_r_state, st_rx);
    }
    if (status < 0)
        return -1;
    return upcall(self, off_r_on_state_change, "on_state_change",
                  st_rx_value);
}

/* The `_update_cca` tail the two edges inline: the busy verdict from
 * the state and the table, then the flag flip and its upcall.
 * ``begun`` is arrival_begins' power (a table of one sums to exactly
 * it) and NULL for arrival_ends (SLEEP senses nothing; an emptied
 * table sums to exactly 0.0).  0 or -1. */
static int
cca_tail(PyObject *self, PyObject *arrivals, PyObject *begun)
{
    PyObject *state = SLOT(self, off_r_state), *was;
    int busy, differs;

    if (state == st_tx || state == st_rx)
        busy = 1;
    else if (begun == NULL && state == st_sleep)
        busy = 0;
    else {
        Py_ssize_t size = PyDict_GET_SIZE(arrivals);
        PyObject *total = NULL, *threshold;
        if (!(begun != NULL ? size == 1 : size == 0)
                && (total = table_sum(arrivals, table_fold)) == NULL)
            return -1;
        threshold = slot_get(self, off_r_cca_threshold,
                             "_cca_threshold_watts");
        Py_XINCREF(threshold);
        busy = threshold == NULL ? -1
            : num_cmp(total != NULL ? total
                      : begun != NULL ? begun : float_zero,
                      threshold, Py_GE);
        Py_XDECREF(threshold);
        Py_XDECREF(total);
        if (busy < 0)
            return -1;
    }
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
 * to the reference, before anything was touched.  Here and in the
 * carrier-sense slots further down, that is the Python method of the
 * same name looked up on the object (``PyObject_CallMethod*(self,
 * name)``), so a subclass's override is what runs. */
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

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "arrival_begins(radio, transmission, power_watts)");
        return NULL;
    }
    self = args[0];
    transmission = args[1];
    power = args[2];
    arrivals = canonical_table(self);
    if (arrivals == NULL || !PyFloat_CheckExact(power))
        return PyObject_CallMethodObjArgs(self, s_arrival_begins, transmission,
                                          power, NULL);
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
            if (run_reference(self, s_abort_locked, NULL, NULL) < 0
                    || try_lock(self, arrivals, transmission, power) < 0)
                goto done;
        }
        else if (refresh_interference(self) < 0)
            goto done;
        status = cca_tail(self, arrivals, power);
    }
    else if (state != st_idle
             || try_lock(self, arrivals, transmission, power) == 0)
        status = cca_tail(self, arrivals, power);
done:
    Py_DECREF(arrivals);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ck_arrival_ends(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *transmission, *arrivals, *locked;
    int status = -1;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "arrival_ends(radio, transmission)");
        return NULL;
    }
    self = args[0];
    transmission = args[1];
    if ((arrivals = canonical_table(self)) == NULL)
        return PyObject_CallMethodOneArg(self, s_arrival_ends, transmission);
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
        status = cca_tail(self, arrivals, NULL);
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
        return PyObject_CallMethodOneArg(tracker, s_sinr_db, end);
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

/* BerErrorModel.frame_survives for an exact BerErrorModel (new
 * reference): the PER from the module's memo, a miss asking the
 * model's own packet_error_rate, then — and only then — one draw. */
static PyObject *
ber_frame_survives(PyObject *model, PyObject *snr, PyObject *size_bits,
                   PyObject *modulation, PyObject *rng)
{
    PyObject *key, *per, *draw, *verdict = NULL;

    /* (snr_db, size_bits, modulation.memo_id): a probe hashes two
     * numbers and a small int, no Python object. */
    if ((key = PyObject_GetAttr(modulation, s_memo_id)) == NULL)
        return NULL;
    Py_SETREF(key, PyTuple_Pack(3, snr, size_bits, key));
    if (key == NULL)
        return NULL;
    if ((per = PyDict_GetItemWithError(per_cache, key)) != NULL)
        Py_INCREF(per);
    else if (!PyErr_Occurred()) {
        per = PyObject_CallMethodObjArgs(model, s_packet_error_rate, snr,
                                         size_bits, modulation, NULL);
        if (per != NULL) {
            if (PyDict_GET_SIZE(per_cache) >= per_cache_limit)
                PyDict_Clear(per_cache);
            if (PyDict_SetItem(per_cache, key, per) < 0)
                Py_CLEAR(per);
        }
    }
    Py_DECREF(key);
    if (per == NULL)
        return NULL;  /* a miss that raises draws no random number */
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

/* ``self.error_model.frame_survives(snr_db, transmission.size_bits,
 * transmission.mode.modulation, self._rng)`` (new reference), operands
 * evaluated in the reference's order.  Only an exact BerErrorModel is
 * answered here; any other model's own method is called. */
static PyObject *
frame_survives(PyObject *self, PyObject *transmission, PyObject *snr)
{
    PyObject *model, *method = NULL, *size_bits = NULL, *modulation = NULL;
    PyObject *rng, *verdict = NULL;

    if ((model = slot_get(self, off_r_error_model, "error_model")) == NULL)
        return NULL;
    Py_INCREF(model);
    if (Py_TYPE(model) != ber_type
            && (method = PyObject_GetAttr(model, s_frame_survives)) == NULL)
        goto done;
    if ((size_bits = PyObject_GetAttr(transmission, s_size_bits)) == NULL
            || (modulation = PyObject_GetAttr(transmission, s_mode)) == NULL)
        goto done;
    Py_SETREF(modulation, PyObject_GetAttr(modulation, s_modulation));
    if (modulation == NULL
            || (rng = slot_get(self, off_r_rng, "_rng")) == NULL)
        goto done;
    Py_INCREF(rng);
    verdict = method == NULL
        ? ber_frame_survives(model, snr, size_bits, modulation, rng)
        : PyObject_CallFunctionObjArgs(method, snr, size_bits, modulation,
                                       rng, NULL);
    Py_DECREF(rng);
done:
    Py_XDECREF(modulation);
    Py_XDECREF(size_bits);
    Py_XDECREF(method);
    Py_DECREF(model);
    return verdict;
}

/* ``if self._trace.enabled: self._trace_rx_end(...)``; 0 or -1. */
static int
trace_rx_end(PyObject *self, PyObject *now, PyObject *transmission,
             PyObject *success, PyObject *snr)
{
    PyObject *trace = slot_get(self, off_r_trace, "_trace"), *enabled;
    int traced;

    if (trace == NULL)
        return -1;
    Py_INCREF(trace);
    enabled = PyObject_GetAttr(trace, s_enabled);
    Py_DECREF(trace);
    if (enabled == NULL)
        return -1;
    traced = flag_is_true(enabled);
    Py_DECREF(enabled);
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

    if (callable == NULL)
        return -1;
    Py_INCREF(callable);
    if ((args[1] = PyObject_GetAttr(transmission, s_payload)) != NULL
            && (args[4] = PyObject_GetAttr(transmission, s_mode)) != NULL)
        status = discard(PyObject_Vectorcall(
            callable, args + 1, 4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL));
    Py_XDECREF(args[4]);
    Py_XDECREF(args[1]);
    Py_DECREF(callable);
    return status;
}

static PyObject *
ck_reception_complete(PyObject *module, PyObject *self)
{
    PyObject *transmission, *tracker, *arrivals;
    PyObject *now = NULL, *snr = NULL, *success = NULL;
    int status = -1;

    if (canonical_table(self) == NULL || ber_type == NULL)
        return PyObject_CallMethodNoArgs(self, s_reception_complete);
    transmission = SLOT(self, off_r_locked);
    if (transmission == Py_None)
        Py_RETURN_NONE;  /* the lock was aborted meanwhile */
    tracker = SLOT(self, off_r_locked_tracker);
    if (tracker == NULL || Py_TYPE(tracker) != sinr_type)
        return PyObject_CallMethodNoArgs(self, s_reception_complete);
    /* Both outlive the slots that are about to let go of them. */
    Py_INCREF(transmission);
    Py_INCREF(tracker);
    slot_set(self, off_r_locked, Py_None);
    slot_set(self, off_r_locked_tracker, Py_None);
    slot_set(self, off_r_state, st_idle);
    if (upcall(self, off_r_on_state_change, "on_state_change",
               st_idle_value) < 0
            || (now = radio_now(self)) == NULL)
        goto done;
    Py_INCREF(now);
    if ((snr = sinr_db(tracker, now)) == NULL
            || (success = frame_survives(self, transmission, snr)) == NULL
            || trace_rx_end(self, now, transmission, success, snr) < 0)
        goto done;
    /* Radio._update_cca: the state is IDLE, so the verdict comes from
     * the table; its idle upcall fires before on_rx_end. */
    arrivals = SLOT(self, off_r_arrivals);
    if (arrivals == NULL || !PyDict_CheckExact(arrivals)) {
        if (run_reference(self, s_update_cca, NULL, NULL) < 0)
            goto done;
    }
    else {
        int tail;
        Py_INCREF(arrivals);
        tail = cca_tail(self, arrivals, NULL);
        Py_DECREF(arrivals);
        if (tail < 0)
            goto done;
    }
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
}

/* --- carrier-sense slots (C twins of DcfMac / Nav methods) ------------- */

/* Bound by bind_mac() at the first DcfMac on a C-kernel simulator. */
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

/* Nav._fire: the expiry upcall unless the NAV was extended meanwhile. */
static PyObject *
ck_nav_fire(PyObject *module, PyObject *self)
{
    PyObject *until, *on_expire, *now;
    int status;

    /* nav_type is NULL until the first DcfMac binds the MAC classes: a
     * free-standing Nav built before that runs its reference. */
    if (nav_type == NULL || Py_TYPE(self) != nav_type
            || !is_float(until = SLOT(self, off_n_until))
            || (on_expire = SLOT(self, off_n_on_expire)) == NULL
            || (now = float_now(SLOT(self, off_n_sim))) == NULL)
        return PyObject_CallMethodNoArgs(self, s_fire);
    if (PyFloat_AS_DOUBLE(now) < PyFloat_AS_DOUBLE(until)
            || on_expire == Py_None)
        Py_RETURN_NONE;
    Py_INCREF(on_expire);
    status = discard(PyObject_CallNoArgs(on_expire));
    Py_DECREF(on_expire);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* DcfMac._maybe_start_ifs: reads, then one arm. */
static PyObject *
ck_maybe_start_ifs(PyObject *module, PyObject *self)
{
    PyObject *ifs, *current, *awaiting, *continuation, *nav, *until;
    PyObject *radio, *state, *arrivals, *threshold, *use_eifs, *wait;
    PyObject *now, *incident, *deadline;
    int armed, pending, busy, status;

    if (mac_type == NULL || Py_TYPE(self) != mac_type || radio_type == NULL)
        return PyObject_CallMethodNoArgs(self, s_maybe_start_ifs);
    ifs = SLOT(self, off_m_ifs);
    if ((armed = timer_armed(ifs)) < 0)
        return PyObject_CallMethodNoArgs(self, s_maybe_start_ifs);
    if (!armed && (armed = timer_armed(SLOT(self, off_m_countdown))) < 0)
        return PyObject_CallMethodNoArgs(self, s_maybe_start_ifs);
    if (armed)
        Py_RETURN_NONE;  /* already contending */
    current = SLOT(self, off_m_current);
    awaiting = SLOT(self, off_m_awaiting);
    continuation = SLOT(self, off_m_tx_continuation);
    if (current == NULL || awaiting == NULL || continuation == NULL
            || (pending = timer_armed(SLOT(self, off_m_pending_send))) < 0)
        return PyObject_CallMethodNoArgs(self, s_maybe_start_ifs);
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
        return PyObject_CallMethodNoArgs(self, s_maybe_start_ifs);
    if (PyFloat_AS_DOUBLE(now) < PyFloat_AS_DOUBLE(until)
            || state != st_idle)
        Py_RETURN_NONE;  /* NAV reservation; TX/RX busy or asleep */
    arrivals = SLOT(radio, off_r_arrivals);
    threshold = SLOT(radio, off_r_cca_threshold);
    use_eifs = SLOT(self, off_m_use_eifs);
    if (arrivals == NULL || !PyDict_CheckExact(arrivals) || threshold == NULL
            || (use_eifs != Py_True && use_eifs != Py_False)
            || !is_float(wait = SLOT(self, use_eifs == Py_True ? off_m_eifs
                                                               : off_m_difs)))
        return PyObject_CallMethodNoArgs(self, s_maybe_start_ifs);
    /* Summing a table of foreign powers may run Python: what is used
     * after it is held, and the deadline is taken first. */
    deadline = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                  + PyFloat_AS_DOUBLE(wait));
    if (deadline == NULL)
        return NULL;
    Py_INCREF(ifs);
    Py_INCREF(threshold);
    if (PyDict_GET_SIZE(arrivals) == 0) {
        incident = float_zero;
        Py_INCREF(incident);
    }
    else {
        Py_INCREF(arrivals);
        incident = table_sum(arrivals, table_fold);
        Py_DECREF(arrivals);
    }
    busy = incident == NULL ? -1 : num_cmp(incident, threshold, Py_GE);
    status = busy != 0 ? busy : arm_impl(ifs, deadline);
    Py_XDECREF(incident);
    Py_DECREF(threshold);
    Py_DECREF(ifs);
    Py_DECREF(deadline);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
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

    if (mac_type == NULL || Py_TYPE(self) != mac_type)
        return PyObject_CallMethodNoArgs(self, s_cancel_access_timers);
    ifs = SLOT(self, off_m_ifs);
    countdown = SLOT(self, off_m_countdown);
    if ((ifs_armed = timer_armed(ifs)) < 0
            || (countdown_armed = timer_armed(countdown)) < 0)
        return PyObject_CallMethodNoArgs(self, s_cancel_access_timers);
    if (!ifs_armed && !countdown_armed)
        Py_RETURN_NONE;
    now = float_now(sim = SLOT(self, off_m_sim));
    if (!is_sim(sim) || (countdown_armed
            && (now == NULL
                || !is_float(slot = SLOT(self, off_m_slot_time))
                || !is_float(anchor = SLOT(self, off_m_anchor))
                || !small_int(remaining_obj = SLOT(self, off_m_remaining),
                              &remaining))))
        return PyObject_CallMethodNoArgs(self, s_cancel_access_timers);
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
        return PyObject_CallMethodNoArgs(self, s_ifs_expired);
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
        return PyObject_CallMethodNoArgs(self, s_ifs_expired);
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
}

/* --- the frame demux (C twin of DcfMac.phy_rx_end) ---------------------- */

/* Bound by bind_mac() with the MAC classes. */
static PyTypeObject *frame_type = NULL, *counter_type = NULL;
static PyObject *unfed_snr = NULL;  /* RateController.on_snr_measurement */
static Py_ssize_t off_m_sniffer, off_m_counters, off_m_controllers;
static Py_ssize_t off_m_address_value, off_m_rate_factory, off_n_timer;

/* ``counters._counts`` (new reference) when ``counters`` is an exact
 * Counter over an exact dict holding a machine int, or nothing, under
 * ``name`` (*count receives it, 0 for nothing); NULL — no error set —
 * for any other shape. */
static PyObject *
counter_table(PyObject *counters, PyObject *name, long long *count)
{
    PyObject *counts, *held;

    if (counters == NULL || Py_TYPE(counters) != counter_type)
        return NULL;
    if ((counts = PyObject_GetAttr(counters, s_counts)) == NULL) {
        PyErr_Clear();
        return NULL;
    }
    *count = 0;
    if (PyDict_CheckExact(counts)
            && ((held = PyDict_GetItemWithError(counts, name)) == NULL
                ? !PyErr_Occurred()
                : small_int(held, count) && *count < PY_LLONG_MAX))
        return counts;
    PyErr_Clear();
    Py_DECREF(counts);
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
    status = discard(PyObject_CallMethodOneArg(counters, s_incr, name));
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

/* ``self.nav.set_until(self.sim._now + reservation)``; 0 or -1. */
static int
extend_nav(PyObject *self, PyObject *reservation)
{
    PyObject *sim = slot_get(self, off_m_sim, "sim"), *nav, *time;
    int status;

    if (sim == NULL || (time = PyObject_GetAttr(sim, s_now)) == NULL)
        return -1;
    Py_SETREF(time, num_add(time, reservation));
    if (time == NULL || (nav = slot_get(self, off_m_nav, "nav")) == NULL) {
        Py_XDECREF(time);
        return -1;
    }
    Py_INCREF(nav);
    status = PyFloat_CheckExact(time) && nav_canonical(nav)
        ? nav_set_until(nav, time)
        : discard(PyObject_CallMethodOneArg(nav, s_set_until, time));
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

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "phy_rx_end(mac, payload, success, snr_db, mode)");
        return NULL;
    }
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
    return PyObject_VectorcallMethod(s_phy_rx_end, args, 5, NULL);
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
 * duck-typed handle, told apart as Simulator.run tells them.  1 with
 * ``*callback`` and ``*cargs`` set (new references; ``*cargs`` NULL for
 * a call without arguments), 0 for a lazy drop (a cancelled handle, a
 * superseded or disarmed timer), -1 on error. */
static int
entry_target(const ck_entry *e, PyObject **callback, PyObject **cargs)
{
    PyObject *ev = e->a, *flag;
    int set;

    *cargs = NULL;
    if (ev == Py_None) {
        /* (time, seq, None, callback, args): fire-and-forget. */
        if (e->c == NULL)
            return index_error();
        Py_INCREF(*callback = e->b);
        Py_INCREF(*cargs = e->c);
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
            return 0;  /* superseded/cancelled: lazy drop */
        slot_set(ev, off_t_armed, Py_False);
        if ((*callback = slot_get(ev, off_t_callback, "_callback")) == NULL)
            return -1;
        Py_INCREF(*callback);
    }
    else if (Py_TYPE(ev) == handle_type) {
        /* (time, seq, handle): cancellable EventHandle. */
        if ((flag = slot_get(ev, off_h_cancelled, "_cancelled")) == NULL
                || (set = flag_is_true(flag)) < 0)
            return -1;
        if (set)
            return 0;  /* lazy drop */
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
            return set < 0 ? -1 : 0;
        if (PyObject_SetAttrString(ev, "_fired", Py_True) < 0
                || (*callback = PyObject_GetAttrString(ev, "callback")) == NULL)
            return -1;
        if ((*cargs = PyObject_GetAttrString(ev, "args")) == NULL) {
            Py_DECREF(*callback);
            return -1;
        }
    }
    if (*cargs != NULL && !PyTuple_Check(*cargs)) {
        /* callback(*args) accepts any iterable; normalize. */
        Py_SETREF(*cargs, PySequence_Tuple(*cargs));
        if (*cargs == NULL) {
            Py_DECREF(*callback);
            return -1;
        }
    }
    return 1;
}

static PyObject *
ck_run(PyObject *module, PyObject *args)
{
    PyObject *sim, *until = Py_None, *max_events = Py_None, *value;
    EventQueue *queue;
    double until_d = 0.0, budget = 0.0;
    int until_is_none, until_is_float, budget_is_inf, flush_per_event;
    long long executed;
    int status;

    if (!PyArg_ParseTuple(args, "O|OO:run", &sim, &until, &max_events))
        return NULL;
    /* Not a kernel='c' Simulator — or install() never ran. */
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
    /* The Python fast branch (until-only) holds the executed counter in
     * a local flushed at exit; every other branch flushes per event. */
    flush_per_event = !(budget_is_inf && !until_is_none);

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
        status = entry_target(&e, &callback, &cargs);
        if (status > 0) {
            /* Advance the clock, count, fire. */
            slot_set(sim, off_sim_now, e.time_obj);
            executed += 1;
            if (!budget_is_inf)
                budget -= 1.0;
            status = !flush_per_event ? 0
                : slot_set_int(sim, off_sim_executed, executed);
            if (status == 0)
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

    /* The Python loop's try/finally: flush the executed counter and
     * drop the running flag even when a callback raised. */
    {
        PyObject *exc_type, *exc_value, *exc_tb;
        PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
        if (slot_set_int(sim, off_sim_executed, executed) < 0)
            PyErr_Clear();
        slot_set(sim, off_sim_running, Py_False);
        PyErr_Restore(exc_type, exc_value, exc_tb);
    }
    Py_DECREF(queue);
    if (status < 0 || (value = slot_get(sim, off_sim_now, "_now")) == NULL)
        return NULL;
    Py_INCREF(value);
    return value;
}

/* --- installation ------------------------------------------------------ */

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

static PyObject *
ck_install(PyObject *module, PyObject *args)
{
    PyObject *timer, *handle, *error, *sim;
    const struct slot_spec timer_slots[] = {
        {"_version", &off_t_version}, {"_armed", &off_t_armed},
        {"_callback", &off_t_callback}, {"_sim", &off_t_sim},
        {"_time", &off_t_time}, {NULL, NULL}};
    const struct slot_spec handle_slots[] = {
        {"_cancelled", &off_h_cancelled}, {"_fired", &off_h_fired},
        {"callback", &off_h_callback}, {"args", &off_h_args}, {NULL, NULL}};
    const struct slot_spec sim_slots[] = {
        {"_now", &off_sim_now}, {"_heap", &off_sim_heap},
        {"_stopped", &off_sim_stopped}, {"_running", &off_sim_running},
        {"_events_executed", &off_sim_executed},
        {"_scheduled", &off_sim_scheduled},
        {"_cancelled_events", &off_sim_cancelled}, {NULL, NULL}};

    if (!PyArg_ParseTuple(args, "OOOO:install", &timer, &handle, &error,
                          &sim))
        return NULL;
    if (!PyType_Check(timer) || !PyType_Check(handle) || !PyType_Check(sim)) {
        PyErr_SetString(PyExc_TypeError, "install(Timer, EventHandle, "
                        "SimulationError, Simulator)");
        return NULL;
    }
    if (resolve_slots(timer, timer_slots) < 0
            || resolve_slots(handle, handle_slots) < 0
            || resolve_slots(sim, sim_slots) < 0)
        return NULL;

    Py_INCREF(timer);
    Py_XSETREF(timer_type, (PyTypeObject *)timer);
    Py_INCREF(handle);
    Py_XSETREF(handle_type, (PyTypeObject *)handle);
    Py_INCREF(sim);
    Py_XSETREF(sim_type, (PyTypeObject *)sim);
    Py_INCREF(error);
    Py_XSETREF(simulation_error, error);
    Py_RETURN_NONE;
}

/* ``*target = getattr(owner, name)`` (replacing a previous binding). */
static int
bind_attr(PyObject **target, PyObject *owner, const char *name)
{
    PyObject *value = PyObject_GetAttrString(owner, name);
    if (value == NULL)
        return -1;
    Py_XSETREF(*target, value);
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

static PyObject *
ck_bind_phy(PyObject *module, PyObject *args)
{
    PyObject *radio, *tracker, *state, *capture, *models, *value;
    const struct slot_spec radio_slots[] = {
        {"_arrivals", &off_r_arrivals}, {"_state", &off_r_state},
        {"_locked", &off_r_locked}, {"_locked_power", &off_r_locked_power},
        {"_locked_tracker", &off_r_locked_tracker},
        {"_cca_busy", &off_r_cca_busy},
        {"_cca_threshold_watts", &off_r_cca_threshold},
        {"_capture", &off_r_capture}, {"_snr_cache", &off_r_snr_cache},
        {"_noise_watts", &off_r_noise}, {"config", &off_r_config},
        {"decodable_modes", &off_r_decodable}, {"_sim", &off_r_sim},
        {"_rx_timer", &off_r_rx_timer}, {"_tracker", &off_r_tracker},
        {"on_cca_busy", &off_r_on_cca_busy},
        {"on_cca_idle", &off_r_on_cca_idle},
        {"on_state_change", &off_r_on_state_change},
        {"on_rx_end", &off_r_on_rx_end}, {"error_model", &off_r_error_model},
        {"_rng", &off_r_rng}, {"_trace", &off_r_trace}, {NULL, NULL}};
    const struct slot_spec tracker_slots[] = {
        {"signal_watts", &off_s_signal}, {"noise_watts", &off_s_noise},
        {"_start", &off_s_start}, {"_last_time", &off_s_last},
        {"_current_interference", &off_s_current},
        {"_energy", &off_s_energy}, {NULL, NULL}};

    if (!PyArg_ParseTuple(args, "OOOOO:bind_phy", &radio, &tracker, &state,
                          &capture, &models))
        return NULL;
    if (!PyType_Check(radio) || !PyType_Check(tracker)
            || !PyType_Check(capture)) {
        PyErr_SetString(PyExc_TypeError, "bind_phy(Radio, SinrTracker, "
                        "RadioState, CaptureModel, error_models)");
        return NULL;
    }
    /* Unbind first: a half-resolved binding must not serve edges. */
    Py_CLEAR(radio_type);
    if (resolve_slots(radio, radio_slots) < 0
            || resolve_slots(tracker, tracker_slots) < 0
            || bind_attr(&st_idle, state, "IDLE") < 0
            || bind_attr(&st_rx, state, "RX") < 0
            || bind_attr(&st_tx, state, "TX") < 0
            || bind_attr(&st_sleep, state, "SLEEP") < 0
            || bind_attr(&st_rx_value, st_rx, "value") < 0
            || bind_attr(&st_idle_value, st_idle, "value") < 0
            || bind_attr(&per_cache, models, "_per_cache") < 0
            || bind_attr((PyObject **)&ber_type, models, "BerErrorModel") < 0)
        return NULL;
    if (!PyDict_CheckExact(per_cache) || !PyType_Check(ber_type)) {
        Py_CLEAR(ber_type);
        PyErr_SetString(PyExc_TypeError, "error_models must hold a "
                        "_per_cache dict and the BerErrorModel class");
        return NULL;
    }
    if ((value = PyObject_GetAttrString(models, "_PER_CACHE_LIMIT")) == NULL)
        return NULL;
    per_cache_limit = PyLong_AsSsize_t(value);
    Py_DECREF(value);
    if (per_cache_limit == -1 && PyErr_Occurred())
        return NULL;
    Py_INCREF(tracker);
    Py_XSETREF(sinr_type, (PyTypeObject *)tracker);
    Py_INCREF(capture);
    Py_XSETREF(capture_type, (PyTypeObject *)capture);
    Py_INCREF(radio);
    radio_type = (PyTypeObject *)radio;
    Py_RETURN_NONE;
}

static PyObject *
ck_bind_mac(PyObject *module, PyObject *args)
{
    PyObject *mac, *nav, *frame, *counter, *unfed;
    const struct slot_spec mac_slots[] = {
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
    const struct slot_spec nav_slots[] = {
        {"_sim", &off_n_sim}, {"_until", &off_n_until},
        {"_on_expire", &off_n_on_expire}, {"_timer", &off_n_timer},
        {NULL, NULL}};

    if (!PyArg_ParseTuple(args, "OOOOO:bind_mac", &mac, &nav, &frame,
                          &counter, &unfed))
        return NULL;
    /* Every DcfMac constructor asks; only the first has work to do. */
    if (mac_type != NULL && (PyObject *)mac_type == mac
            && (PyObject *)nav_type == nav
            && (PyObject *)frame_type == frame
            && (PyObject *)counter_type == counter && unfed_snr == unfed)
        Py_RETURN_NONE;
    if (!PyType_Check(mac) || !PyType_Check(nav) || !PyType_Check(frame)
            || !PyType_Check(counter)) {
        PyErr_SetString(PyExc_TypeError,
                        "bind_mac(DcfMac, Nav, Dot11Frame, Counter, "
                        "RateController.on_snr_measurement)");
        return NULL;
    }
    /* Unbind first: a half-resolved binding must not serve slots. */
    Py_CLEAR(mac_type);
    Py_CLEAR(nav_type);
    if (resolve_slots(mac, mac_slots) < 0 || resolve_slots(nav, nav_slots) < 0)
        return NULL;
    Py_INCREF(frame);
    Py_XSETREF(frame_type, (PyTypeObject *)frame);
    Py_INCREF(counter);
    Py_XSETREF(counter_type, (PyTypeObject *)counter);
    Py_INCREF(unfed);
    Py_XSETREF(unfed_snr, unfed);
    Py_INCREF(nav);
    nav_type = (PyTypeObject *)nav;
    Py_INCREF(mac);
    mac_type = (PyTypeObject *)mac;
    Py_RETURN_NONE;
}

/* --- module ------------------------------------------------------------ */

static PyMethodDef ck_methods[] = {
    {"install", ck_install, METH_VARARGS,
     "install(Timer, EventHandle, SimulationError, Simulator): bind the\n"
     "engine's classes (resolves their __slots__ offsets). Must be called\n"
     "before anything else here."},
    {"run", ck_run, METH_VARARGS,
     "run(sim, until=None, max_events=None) -> float\n"
     "Compiled twin of Simulator.run(); byte-identical event sequence."},
    {"bind_phy", ck_bind_phy, METH_VARARGS,
     "bind_phy(Radio, SinrTracker, RadioState, CaptureModel,\n"
     "error_models): bind the PHY classes the receive edges and the\n"
     "reception tail work on (slot offsets, the state members, the\n"
     "PER memo). Idempotent."},
    {"bind_mac", ck_bind_mac, METH_VARARGS,
     "bind_mac(DcfMac, Nav, Dot11Frame, Counter,\n"
     "RateController.on_snr_measurement): bind the MAC classes the\n"
     "carrier-sense slots and the frame demux work on (slot offsets, the\n"
     "no-op a controller may inherit). Resolves once per process."},
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
     "Radio.arrival_begins (bind with types.MethodType)."},
    {"arrival_ends", (PyCFunction)(void (*)(void))ck_arrival_ends,
     METH_FASTCALL,
     "arrival_ends(radio, transmission): compiled twin of\n"
     "Radio.arrival_ends (bind with types.MethodType)."},
    /* Named as their references are: whatever labels a heap entry or an
     * upcall by its callback's __name__ must not learn which kernel ran. */
    {"_reception_complete", ck_reception_complete, METH_O,
     "_reception_complete(radio): compiled twin of\n"
     "Radio._reception_complete (bind with types.MethodType)."},
    {"_maybe_start_ifs", ck_maybe_start_ifs, METH_O,
     "_maybe_start_ifs(mac): compiled twin of DcfMac._maybe_start_ifs."},
    {"_cancel_access_timers", ck_cancel_access_timers, METH_O,
     "_cancel_access_timers(mac): compiled twin of\n"
     "DcfMac._cancel_access_timers."},
    {"_ifs_expired", ck_ifs_expired, METH_O,
     "_ifs_expired(mac): compiled twin of DcfMac._ifs_expired."},
    {"_fire", ck_nav_fire, METH_O,
     "_fire(nav): compiled twin of Nav._fire."},
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
        {&s_mode, "mode"}, {&s_name, "name"}, {&s_duration, "duration"},
        {&s_enabled, "enabled"}, {&s_threshold_db, "threshold_db"},
        {&s_should_capture, "should_capture"},
        {&s_preamble_snr, "preamble_detection_snr_db"},
        {&s_abort_locked, "_abort_locked"}, {&s_try_lock, "_try_lock"},
        {&s_refresh_interference, "_refresh_interference"},
        {&s_reception_complete, "_reception_complete"},
        {&s_update_cca, "_update_cca"}, {&s_trace_rx_end, "_trace_rx_end"},
        {&s_sinr_db, "sinr_db"}, {&s_frame_survives, "frame_survives"},
        {&s_packet_error_rate, "packet_error_rate"}, {&s_random, "random"},
        {&s_size_bits, "size_bits"}, {&s_modulation, "modulation"},
        {&s_payload, "payload"}, {&s_maybe_start_ifs, "_maybe_start_ifs"},
        {&s_cancel_access_timers, "_cancel_access_timers"},
        {&s_ifs_expired, "_ifs_expired"}, {&s_access_won, "_access_won"},
        {&s_fire, "_fire"}, {&s_arrival_begins, "arrival_begins"},
        {&s_arrival_ends, "arrival_ends"}, {&s_memo_id, "memo_id"},
        {&s_phy_rx_end, "phy_rx_end"}, {&s_rx_verdict, "rx_verdict"},
        {&s_counts, "_counts"}, {&s_incr, "incr"},
        {&s_rx_corrupt, "rx_corrupt"}, {&s_nav_updates, "nav_updates"},
        {&s_set_until, "set_until"}, {&s_until, "_until"},
        {&s_standard, "standard"},
        {&s_on_snr_measurement, "on_snr_measurement"}};
    size_t i;

    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if ((*names[i].target
                = PyUnicode_InternFromString(names[i].text)) == NULL)
            return NULL;
    if ((float_zero = PyFloat_FromDouble(0.0)) == NULL
            || (builtin_sum = PyMapping_GetItemString(PyEval_GetBuiltins(),
                                                      "sum")) == NULL)
        return NULL;

    if (PyType_Ready(&EventQueue_Type) < 0)
        return NULL;
    module = PyModule_Create(&ck_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "KERNEL_NAME", "c") < 0
            || PyModule_AddIntConstant(module, "KERNEL_ABI", 7) < 0
            || PyModule_AddObjectRef(module, "EventQueue",
                                     (PyObject *)&EventQueue_Type) < 0
            || discard(ck_select_fold(module, builtin_sum)) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
