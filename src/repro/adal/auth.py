"""Authentication and authorisation mechanisms for ADAL.

The paper calls ADAL "extensible to support new backends, *authentication
mechanisms*"; the extension point is :class:`AuthProvider`.  Two providers
are bundled (anonymous and token-based), plus a path-prefix ACL authoriser
that maps principals/groups to permissions per URL prefix — the shape of
access control a multi-community facility needs (each experiment sees only
its own tree).
"""

from __future__ import annotations

import math
import secrets
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.adal.errors import AuthError, PermissionDeniedError

#: The permission vocabulary.
PERMISSIONS = ("read", "write", "delete", "admin")


@dataclass(frozen=True)
class Credentials:
    """What a caller presents: a subject name and an optional secret."""

    subject: str
    token: Optional[str] = None


@dataclass(frozen=True)
class Principal:
    """An authenticated identity with group memberships."""

    name: str
    groups: frozenset[str] = frozenset()

    def identities(self) -> frozenset[str]:
        """All names this principal can act as (self + groups)."""
        return self.groups | {self.name}


class AuthProvider:
    """Maps :class:`Credentials` to a :class:`Principal` (or raises)."""

    name = "abstract"

    def authenticate(self, credentials: Credentials) -> Principal:
        """Authenticate or raise :class:`~repro.adal.errors.AuthError`."""
        raise NotImplementedError


class AnonymousAuth(AuthProvider):
    """Accepts anyone as the (group-less) principal they claim to be.

    Used for open scratch areas and in tests; pair with an ACL that grants
    ``anonymous`` little or nothing in production trees.
    """

    name = "anonymous"

    def authenticate(self, credentials: Credentials) -> Principal:
        return Principal(credentials.subject or "anonymous")


@dataclass(frozen=True)
class Session:
    """A short-lived bearer session issued against static credentials.

    ``expires`` is an absolute reading of the issuing provider's clock;
    with the default (constant-zero) clock sessions never expire, which
    keeps the provider usable inside deterministic simulations.
    """

    token: str
    subject: str
    issued: float
    expires: float


class TokenAuth(AuthProvider):
    """Static token table: subject -> (token, groups), plus sessions.

    Long-lived subject tokens are registered out of band; callers (the
    wire service's ``auth`` op) exchange them for short-lived bearer
    :class:`Session` tokens via :meth:`issue_session`.  All table and
    session state is guarded by one lock: the wire layer authenticates
    from multiple asyncio tasks and, in tests, from multiple threads.

    ``clock`` is any zero-argument time callable — the wire server passes
    its wall clock, simulations their sim clock; the default stamps 0.0
    (sessions never expire).
    """

    name = "token"

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._lock = threading.Lock()
        self._table: dict[str, tuple[str, frozenset[str]]] = {}
        self._sessions: dict[str, Session] = {}
        self._session_seq = 0

    def register(self, subject: str, token: str, groups: Iterable[str] = ()) -> None:
        """Install a subject's token and group memberships."""
        if not token:
            raise ValueError("empty tokens are not allowed")
        with self._lock:
            self._table[subject] = (token, frozenset(groups))

    def revoke(self, subject: str) -> None:
        """Remove a subject and every session issued to it (idempotent)."""
        with self._lock:
            self._table.pop(subject, None)
            stale = [t for t, s in self._sessions.items()
                     if s.subject == subject]
            for token in stale:
                del self._sessions[token]

    def authenticate(self, credentials: Credentials) -> Principal:
        """Check a subject token against the static table."""
        with self._lock:
            entry = self._table.get(credentials.subject)
        if entry is None:
            raise AuthError(f"unknown subject {credentials.subject!r}")
        token, groups = entry
        if credentials.token != token:
            raise AuthError(f"bad token for subject {credentials.subject!r}")
        return Principal(credentials.subject, groups)

    # -- sessions -----------------------------------------------------------
    def issue_session(self, credentials: Credentials,
                      ttl: float = 3600.0) -> Session:
        """Exchange static credentials for a fresh bearer session."""
        if not (ttl > 0 and math.isfinite(ttl)):
            raise ValueError("session ttl must be a finite number > 0")
        principal = self.authenticate(credentials)
        with self._lock:
            self._session_seq += 1
            token = f"sess-{self._session_seq:08d}-{secrets.token_hex(8)}"
            now = self._clock()
            session = Session(token=token, subject=principal.name,
                              issued=now, expires=now + ttl)
            self._sessions[token] = session
        return session

    def authenticate_session(self, token: str) -> Principal:
        """Resolve a live session token to its principal.

        Raises :class:`~repro.adal.errors.AuthError` for unknown, expired
        or revoked sessions (expired ones are reaped on sight).  Group
        membership is read live from the table, so a ``register`` with new
        groups takes effect on in-flight sessions immediately.
        """
        with self._lock:
            session = self._sessions.get(token)
            if session is None:
                raise AuthError("unknown session token")
            if self._clock() >= session.expires:
                del self._sessions[token]
                raise AuthError(
                    f"session for {session.subject!r} has expired")
            entry = self._table.get(session.subject)
            if entry is None:
                del self._sessions[token]
                raise AuthError(
                    f"subject {session.subject!r} has been revoked")
            return Principal(session.subject, entry[1])

    def revoke_session(self, token: str) -> None:
        """Invalidate one session token (idempotent)."""
        with self._lock:
            self._sessions.pop(token, None)

    @property
    def active_sessions(self) -> int:
        """Number of unexpired, unrevoked sessions currently held."""
        with self._lock:
            now = self._clock()
            return sum(1 for s in self._sessions.values() if s.expires > now)


@dataclass
class AclEntry:
    """One grant: identities -> permissions, under a URL prefix."""

    prefix: str
    identity: str  # principal or group name, or "*" for everyone
    permissions: frozenset[str]


def _prefix_match(prefix: str, url: str) -> bool:
    """Component-aware prefix match: ``a/b`` covers ``a/b`` and ``a/b/c``,
    not ``a/bc``; a trailing slash on the grant prefix is optional."""
    prefix = prefix.rstrip("/")
    url = url.rstrip("/")
    return url == prefix or url.startswith(prefix + "/")


class AclAuthorizer:
    """Prefix-match ACLs over ADAL URLs.

    Grants are additive: a principal holds a permission on a URL if *any*
    matching entry (by identity or group, at any matching prefix) grants it.
    ``admin`` implies everything.
    """

    def __init__(self) -> None:
        self._entries: list[AclEntry] = []

    def grant(self, prefix: str, identity: str, permissions: Iterable[str]) -> None:
        """Add a grant under a URL prefix for a principal/group/``*``."""
        perms = frozenset(permissions)
        unknown = perms - set(PERMISSIONS)
        if unknown:
            raise ValueError(f"unknown permissions: {sorted(unknown)}")
        self._entries.append(AclEntry(prefix, identity, perms))

    def permissions(self, principal: Principal, url: str) -> frozenset[str]:
        """All permissions the principal holds on ``url``."""
        identities = principal.identities() | {"*"}
        granted: set[str] = set()
        for entry in self._entries:
            if entry.identity in identities and _prefix_match(entry.prefix, url):
                granted |= entry.permissions
        if "admin" in granted:
            granted |= set(PERMISSIONS)
        return frozenset(granted)

    def check(self, principal: Principal, url: str, permission: str) -> None:
        """Raise :class:`PermissionDeniedError` unless permission is held."""
        if permission not in PERMISSIONS:
            raise ValueError(f"unknown permission {permission!r}")
        if permission not in self.permissions(principal, url):
            raise PermissionDeniedError(
                f"{principal.name!r} lacks {permission!r} on {url!r}"
            )


@dataclass
class AuthContext:
    """The resolved security context attached to an :class:`AdalClient`."""

    principal: Principal
    authorizer: Optional[AclAuthorizer] = None
    audit_log: list[tuple[str, str, str]] = field(default_factory=list)

    def check(self, url: str, permission: str) -> None:
        """Authorise and audit one operation."""
        if self.authorizer is not None:
            self.authorizer.check(self.principal, url, permission)
        self.audit_log.append((self.principal.name, permission, url))
