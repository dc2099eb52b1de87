"""Unit tests of :class:`repro.server.gate.QuiesceGate`.

Every wait in here is bounded: a regression shows up as a failed assertion,
not as a hung test run.
"""

from __future__ import annotations

import threading

import pytest

from repro.server.gate import QuiesceGate

WAIT = 5.0  # upper bound for things that must happen
QUIET = 0.2  # how long we watch for things that must not


def run_in_thread(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def finished(thread):
    thread.join(WAIT)
    return not thread.is_alive()


class TestQuiesceGate:
    def test_entrants_block_while_paused_and_proceed_after(self):
        gate = QuiesceGate()
        entered = threading.Event()

        def work():
            with gate.enter():
                entered.set()

        with gate.paused():
            worker = run_in_thread(work)
            assert not entered.wait(QUIET), "entered a paused gate"
        assert entered.wait(WAIT), "never admitted after the gate reopened"
        assert finished(worker)

    def test_paused_section_waits_for_inflight_work(self):
        gate = QuiesceGate()
        inside, leave, paused = (threading.Event() for _ in range(3))

        def work():
            with gate.enter():
                inside.set()
                leave.wait(WAIT)

        def change_state():
            with gate.paused():
                paused.set()

        worker = run_in_thread(work)
        assert inside.wait(WAIT)
        changer = run_in_thread(change_state)
        assert not paused.wait(QUIET), "paused over in-flight work"
        leave.set()
        assert paused.wait(WAIT)
        assert finished(worker) and finished(changer)

    def test_exception_inside_enter_restores_the_inflight_count(self):
        gate = QuiesceGate()
        with pytest.raises(KeyError):
            with gate.enter():
                raise KeyError("unit of work failed")

        def change_state():
            with gate.paused():
                pass

        # A leaked count would make the paused section wait forever.
        assert finished(run_in_thread(change_state))

    def test_exception_inside_paused_reopens_the_gate(self):
        gate = QuiesceGate()
        with pytest.raises(KeyError):
            with gate.paused():
                raise KeyError("state change failed")
        entered = threading.Event()

        def work():
            with gate.enter():
                entered.set()

        worker = run_in_thread(work)
        assert entered.wait(WAIT), "gate stayed paused after a failed change"
        assert finished(worker)

    def test_enter_after_close_raises(self):
        gate = QuiesceGate()
        gate.drain_and_close()
        with pytest.raises(RuntimeError, match="shut down"):
            with gate.enter():
                pytest.fail("entered a closed gate")

    def test_entrant_queued_at_a_paused_gate_is_rejected_once_closed(self):
        gate = QuiesceGate()
        outcome = []

        def work():
            try:
                with gate.enter():
                    outcome.append("entered")
            except RuntimeError:
                outcome.append("rejected")

        with gate.paused():
            worker = run_in_thread(work)
            closer = run_in_thread(gate.drain_and_close)
            assert finished(closer)  # nothing in flight: closes at once
        assert finished(worker)
        assert outcome == ["rejected"]

    def test_drain_and_close_returns_only_when_nothing_is_in_flight(self):
        gate = QuiesceGate()
        inside, leave, closed = (threading.Event() for _ in range(3))

        def work():
            with gate.enter():
                inside.set()
                leave.wait(WAIT)

        def close():
            gate.drain_and_close()
            closed.set()

        worker = run_in_thread(work)
        assert inside.wait(WAIT)
        closer = run_in_thread(close)
        assert not closed.wait(QUIET), "closed over in-flight work"
        leave.set()
        assert closed.wait(WAIT)
        assert finished(worker) and finished(closer)
