"""A simulated single CPU per host.

Every piece of simulated software — interrupt handlers, kernel code,
the UX server, protocol libraries, applications — charges its execution
time to its host's CPU.  The CPU serializes charges with a priority
scheduler (lower number runs first at each release point), which is what
makes receiver-side protocol processing the throughput bottleneck, exactly
as in the paper's measurements.

Charges are non-preemptive: a running charge completes before a
higher-priority one starts.  Interrupt latency is therefore bounded by the
largest single charge, which the protocol code keeps small by charging
per-layer.
"""

from repro.sim.sync import PriorityLock


class Priority:
    """Scheduling priority bands (lower runs first)."""

    INTERRUPT = 0
    KERNEL = 1
    SERVER = 2
    PROTOCOL = 3
    APPLICATION = 4


class CPU:
    """A host CPU: a priority-scheduled, non-preemptive time resource."""

    def __init__(self, sim, params, name="cpu"):
        self._sim = sim
        self.params = params
        self.name = name
        self._sched = PriorityLock(sim, name=name)
        self.busy_time = 0.0
        self.charge_count = 0

    @property
    def scheduler(self):
        """The :class:`PriorityLock` serializing charges (observers use
        its ``contended`` count and ``depth_gauge`` telemetry hook)."""
        return self._sched

    def utilization(self):
        """Fraction of elapsed simulated time this CPU spent busy."""
        if self._sim.now == 0:
            return 0.0
        return self.busy_time / self._sim.now

    def contention(self):
        """Number of charges currently waiting for the CPU."""
        return self._sched.waiting()

    def snapshot(self):
        """Resource levels for telemetry (read-only)."""
        return {
            "busy_us": self.busy_time,
            "utilization": self.utilization(),
            "charges": self.charge_count,
            "waiting": self._sched.waiting(),
            "contended": self._sched.contended,
        }

    def __repr__(self):
        return "<CPU %s busy=%.0fus>" % (self.name, self.busy_time)
