"""Tenant registry: per-tenant admission quotas for the query service.

Each tenant owns one :class:`AdmissionController` built from its
:class:`AdmissionPolicy`: a cap on the whole client requests
(queries/mutations) the tenant may have in flight at once.  That is a
wall-clock guard on real request threads — a tenant hammering the service
— and plays no part in the simulated clock: the execution below a request
knows nothing of it.

Unknown tenants are admitted under ``default_policy`` (each still gets
its *own* controller, so one tenant's quota never counts against
another's); a ``None`` default means unregistered tenants run
unthrottled.
"""

import threading
from dataclasses import dataclass

from repro.common.errors import OverloadError, tag_request


@dataclass(frozen=True)
class AdmissionPolicy:
    """What one tenant may ask of the service: at most
    ``max_inflight_requests`` whole requests at once (None: no limit)."""

    max_inflight_requests: int = None


class AdmissionController:
    """Enforces an :class:`AdmissionPolicy`; counts the requests it
    admitted and shed and those in flight now."""

    def __init__(self, policy):
        self.policy = policy
        self._lock = threading.Lock()
        self.admitted = 0
        self.shed = 0
        #: Whole requests currently inside :meth:`acquire_request` /
        #: :meth:`release_request`.
        self.inflight = 0

    def acquire_request(self, tenant=None, request_id=None):
        """Admit one whole client request against the per-tenant quota, or
        shed it with an :class:`~repro.common.errors.OverloadError`
        (``reason="tenant"``) carrying the originating tenant/request id.
        The caller must pair every successful acquire with
        :meth:`release_request` (``try/finally``)."""
        limit = self.policy.max_inflight_requests
        with self._lock:
            if limit is not None and self.inflight >= limit:
                self.shed += 1
                raise tag_request(
                    OverloadError(
                        f"tenant quota exceeded: {self.inflight} request(s) "
                        f"already in flight (limit {limit})",
                        reason="tenant",
                    ),
                    tenant, request_id,
                )
            self.inflight += 1
            self.admitted += 1

    def release_request(self):
        """Release one :meth:`acquire_request` admission."""
        with self._lock:
            self.inflight = max(0, self.inflight - 1)


@dataclass(frozen=True)
class Tenant:
    """One registered tenant: a name and its admission policy."""

    name: str
    policy: AdmissionPolicy = None


class TenantRegistry:
    """Named tenants and their (lazily built) admission controllers."""

    def __init__(self, default_policy=None):
        self.default_policy = default_policy
        self._lock = threading.Lock()
        self._tenants = {}
        self._controllers = {}

    def register(self, name, policy=None):
        """Register (or re-register) ``name`` under ``policy``; returns
        the :class:`Tenant`.  Re-registering replaces the policy and
        resets the tenant's controller."""
        if isinstance(policy, (int, float)):
            policy = AdmissionPolicy(max_inflight_requests=int(policy))
        tenant = Tenant(name=name, policy=policy)
        with self._lock:
            self._tenants[name] = tenant
            self._controllers.pop(name, None)
        return tenant

    def tenants(self):
        with self._lock:
            return dict(self._tenants)

    def controller(self, name):
        """The tenant's :class:`AdmissionController`, built on first use
        from its policy (or the registry default); None when neither the
        tenant nor the registry carries a policy."""
        with self._lock:
            controller = self._controllers.get(name)
            if controller is not None:
                return controller
            tenant = self._tenants.get(name)
            policy = tenant.policy if tenant is not None else None
            if policy is None:
                policy = self.default_policy
            if policy is None:
                return None
            controller = AdmissionController(policy)
            self._controllers[name] = controller
            return controller

    def stats(self):
        """Per-tenant counters: ``{name: {admitted, shed, inflight}}``."""
        with self._lock:
            controllers = dict(self._controllers)
        return {
            name: {
                "admitted": c.admitted,
                "shed": c.shed,
                "inflight": c.inflight,
            }
            for name, c in controllers.items()
        }
