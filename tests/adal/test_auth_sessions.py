"""TokenAuth session tests: issue/validate/revoke/expire, raced hard.

The wire server authenticates sessions from multiple asyncio tasks and —
in these tests — from multiple OS threads at once, so the provider's
single-lock discipline is exercised both ways.  Expiry runs on an
injectable fake clock; the default (constant-zero) clock must never
expire anything.
"""

import asyncio
import threading

import pytest

from repro.adal import AuthError, Credentials, TokenAuth


class FakeClock:
    """A hand-advanced clock (thread-safe enough for these tests)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSessionLifecycle:
    def _auth(self, clock=None):
        auth = TokenAuth(clock=clock)
        auth.register("alice", "s3cret", groups=["zf"])
        return auth

    def test_issue_and_authenticate(self):
        auth = self._auth()
        session = auth.issue_session(Credentials("alice", "s3cret"))
        principal = auth.authenticate_session(session.token)
        assert principal.name == "alice"
        assert principal.groups == frozenset({"zf"})
        assert auth.active_sessions == 1

    def test_issue_needs_valid_credentials(self):
        auth = self._auth()
        with pytest.raises(AuthError):
            auth.issue_session(Credentials("alice", "wrong"))
        with pytest.raises(AuthError):
            auth.issue_session(Credentials("ghost", "x"))
        assert auth.active_sessions == 0

    def test_unknown_session_refused(self):
        with pytest.raises(AuthError):
            self._auth().authenticate_session("sess-bogus")

    def test_session_tokens_are_unique(self):
        auth = self._auth()
        tokens = {auth.issue_session(Credentials("alice", "s3cret")).token
                  for _ in range(32)}
        assert len(tokens) == 32

    def test_invalid_ttl_rejected(self):
        auth = self._auth()
        with pytest.raises(ValueError):
            auth.issue_session(Credentials("alice", "s3cret"), ttl=0.0)

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf")])
    def test_non_finite_ttl_rejected(self, ttl):
        # A NaN expiry never compares as reached: the session would live
        # forever.
        auth = self._auth()
        with pytest.raises(ValueError, match="ttl"):
            auth.issue_session(Credentials("alice", "s3cret"), ttl=ttl)
        assert auth.active_sessions == 0

    def test_expiry_on_fake_clock(self):
        clock = FakeClock()
        auth = self._auth(clock=clock)
        session = auth.issue_session(Credentials("alice", "s3cret"), ttl=10.0)
        clock.now = 9.999
        assert auth.authenticate_session(session.token).name == "alice"
        clock.now = 10.0
        with pytest.raises(AuthError):
            auth.authenticate_session(session.token)
        # Expired sessions are reaped on sight.
        assert auth.active_sessions == 0

    def test_default_clock_never_expires(self):
        auth = self._auth()
        session = auth.issue_session(Credentials("alice", "s3cret"), ttl=1.0)
        for _ in range(3):
            assert auth.authenticate_session(session.token).name == "alice"

    def test_revoke_subject_kills_sessions(self):
        auth = self._auth()
        session = auth.issue_session(Credentials("alice", "s3cret"))
        auth.revoke("alice")
        with pytest.raises(AuthError):
            auth.authenticate_session(session.token)
        assert auth.active_sessions == 0

    def test_revoke_single_session(self):
        auth = self._auth()
        keep = auth.issue_session(Credentials("alice", "s3cret"))
        drop = auth.issue_session(Credentials("alice", "s3cret"))
        auth.revoke_session(drop.token)
        auth.revoke_session(drop.token)  # idempotent
        with pytest.raises(AuthError):
            auth.authenticate_session(drop.token)
        assert auth.authenticate_session(keep.token).name == "alice"

    def test_group_updates_reach_live_sessions(self):
        auth = self._auth()
        session = auth.issue_session(Credentials("alice", "s3cret"))
        auth.register("alice", "s3cret", groups=["zf", "ops"])
        principal = auth.authenticate_session(session.token)
        assert principal.groups == frozenset({"zf", "ops"})


class TestConcurrency:
    """Threads racing issue/validate/revoke must never corrupt the table."""

    def test_threaded_issue_and_validate(self):
        auth = TokenAuth()
        auth.register("alice", "s3cret")
        tokens: list[str] = []
        tokens_lock = threading.Lock()
        failures: list[Exception] = []

        def worker():
            try:
                for _ in range(50):
                    session = auth.issue_session(
                        Credentials("alice", "s3cret"))
                    with tokens_lock:
                        tokens.append(session.token)
                    assert (auth.authenticate_session(session.token).name
                            == "alice")
            except Exception as exc:  # surfaced below, not swallowed
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert len(tokens) == len(set(tokens)) == 400
        assert auth.active_sessions == 400

    def test_threaded_issue_races_revoke(self):
        auth = TokenAuth()
        for i in range(4):
            auth.register(f"user{i}", "tok")
        failures: list[Exception] = []
        stop = threading.Event()

        def issuer(subject):
            while not stop.is_set():
                try:
                    session = auth.issue_session(Credentials(subject, "tok"))
                    try:
                        auth.authenticate_session(session.token)
                    except AuthError:
                        pass  # revoked between issue and validate: legal
                except AuthError:
                    pass  # revoked before issue: legal
                except Exception as exc:
                    failures.append(exc)
                    return

        def revoker():
            for _ in range(200):
                for i in range(4):
                    auth.revoke(f"user{i}")
                    auth.register(f"user{i}", "tok")
            stop.set()

        threads = [threading.Thread(target=issuer, args=(f"user{i}",))
                   for i in range(4)]
        chaos = threading.Thread(target=revoker)
        for t in threads:
            t.start()
        chaos.start()
        chaos.join()
        for t in threads:
            t.join(timeout=10.0)
        assert failures == []
        # Every surviving session still resolves or is cleanly gone.
        assert auth.active_sessions >= 0

    def test_threaded_expiry_reaping(self):
        clock = FakeClock()
        auth = TokenAuth(clock=clock)
        auth.register("alice", "s3cret")
        sessions = [auth.issue_session(Credentials("alice", "s3cret"),
                                       ttl=5.0)
                    for _ in range(100)]
        clock.now = 10.0  # everything is now expired
        failures: list[Exception] = []

        def reaper(chunk):
            for session in chunk:
                try:
                    auth.authenticate_session(session.token)
                    failures.append(AssertionError("expired session passed"))
                except AuthError:
                    pass  # expected: expired (or already reaped) either way
                except Exception as exc:
                    failures.append(exc)

        threads = [threading.Thread(target=reaper,
                                    args=(sessions[i::4],))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert auth.active_sessions == 0

    def test_asyncio_tasks_race_sessions(self):
        async def go():
            auth = TokenAuth()
            auth.register("alice", "s3cret")

            async def one(i):
                session = auth.issue_session(Credentials("alice", "s3cret"))
                await asyncio.sleep(0)
                principal = auth.authenticate_session(session.token)
                if i % 2:
                    auth.revoke_session(session.token)
                return principal.name

            names = await asyncio.gather(*[one(i) for i in range(64)])
            return names, auth.active_sessions

        names, active = asyncio.run(go())
        assert set(names) == {"alice"}
        assert active == 32
