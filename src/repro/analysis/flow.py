"""The structured forward walker under the flow-sensitive pass.

The address-domain pass (:mod:`repro.analysis.domains`) pushes an
abstract state forwards through one function body.  How control flow
splits and rejoins is kept apart from what a statement does to that
state, so each can be read (and tested) alone.  A pass subclasses
:class:`FlowWalker`, supplies the transfer functions
(:meth:`~FlowWalker.expr`, :meth:`~FlowWalker.bind`,
:meth:`~FlowWalker.simple`, :meth:`~FlowWalker.returns`,
:meth:`~FlowWalker.nested`) and a state object with two methods:

``copy()``
    An independent state for one arm of a split.
``join(other)``
    A new state describing "either path was taken".

A path that ended (``return``, ``raise``, ``break``, ``continue``) is
``None``; joining with it keeps the other side.

The control-flow rules, all on the safe-and-quiet side:

* ``if`` — both arms start from the state after the test and rejoin.
* ``for`` / ``while`` — the header expression is evaluated once, then
  the body is walked **twice**, each time from the join of the loop
  entry and everything that reached the end of the body so far, so
  loop-carried state (set in iteration N, used in N+1) is seen.  The
  state after the loop is that join — zero iterations included — plus
  every ``break``; a ``while True`` is left only by its breaks.  Passes
  must therefore tolerate seeing a statement twice (report into a set).
* ``try`` — an exception can leave the body anywhere, so every handler
  starts from the join of the try-entry and try-exit states; the
  ``finally`` suite runs on the join of everything that fell through.
* ``with`` — the body runs unconditionally; an exit that swallows
  exceptions is not modelled.
"""

import ast


def join(a, b):
    """Merge two path states; ``None`` is a path that ended."""
    if a is None:
        return b
    if b is None:
        return a
    return a.join(b)


class FlowWalker:
    """Forward walk of one function body; subclasses are the transfer
    functions.  Every hook mutates ``state`` in place."""

    # -- transfer functions ----------------------------------------------------

    def expr(self, node, state):
        """An expression evaluated for its effects: a branch or loop
        test, an iterable, a context manager, a raised value."""

    def bind(self, target, state, source):
        """A loop, ``with`` or ``except`` target bound from ``source``
        (the iterable / context expression; None for a handler name)."""

    def simple(self, stmt, state):
        """Any statement that is not control flow."""

    def returns(self, stmt, state):
        """A ``return`` statement (the walker ends the path)."""

    def nested(self, stmt, state):
        """A nested ``def`` / ``class`` (a scope of its own)."""

    # -- driving ---------------------------------------------------------------

    def walk(self, stmts, state):
        """Walk a function body; the state falling off its end, or None."""
        self._loops = []  # (breaks, continues) per enclosing loop
        return self.block(stmts, state)

    def block(self, stmts, state):
        for stmt in stmts:
            if state is None:
                break
            state = self.stmt(stmt, state)
        return state

    def stmt(self, stmt, state):
        if isinstance(stmt, ast.If):
            self.expr(stmt.test, state)
            orelse = state.copy()
            return join(
                self.block(stmt.body, state),
                self.block(stmt.orelse, orelse),
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, state)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.expr(item.context_expr, state)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, state, item.context_expr)
            return self.block(stmt.body, state)
        if isinstance(stmt, ast.Return):
            self.returns(stmt, state)
            return None
        if isinstance(stmt, ast.Raise):
            for part in (stmt.exc, stmt.cause):
                if part is not None:
                    self.expr(part, state)
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loops:  # ``ast.parse`` accepts a stray one
                breaks, continues = self._loops[-1]
                is_break = isinstance(stmt, ast.Break)
                (breaks if is_break else continues).append(state)
            return None
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            self.nested(stmt, state)
            return state
        self.simple(stmt, state)
        return state

    def _loop(self, stmt, state):
        is_while = isinstance(stmt, ast.While)
        header = stmt.test if is_while else stmt.iter
        self.expr(header, state)
        breaks, continues = [], []
        self._loops.append((breaks, continues))
        for _ in range(2):
            body = state.copy()
            if not is_while:
                self.bind(stmt.target, body, header)
            body = self.block(stmt.body, body)
            for other in continues:
                body = join(body, other)
            del continues[:]
            state = join(state, body)
        self._loops.pop()
        forever = (
            is_while
            and isinstance(header, ast.Constant)
            and bool(header.value)
        )
        out = None if forever else self.block(stmt.orelse, state)
        for other in breaks:
            out = join(out, other)
        return out

    def _try(self, stmt, state):
        entry = state.copy()
        body = self.block(stmt.body, state)
        raised = join(entry, body)
        outs = []
        for handler in stmt.handlers:
            handler_state = raised.copy()
            if handler.name:
                name = ast.copy_location(
                    ast.Name(id=handler.name, ctx=ast.Store()), handler
                )
                self.bind(name, handler_state, None)
            outs.append(self.block(handler.body, handler_state))
        out = self.block(stmt.orelse, body)
        for other in outs:
            out = join(out, other)
        if out is None:
            # Every path left early; the finally suite still runs.
            self.block(stmt.finalbody, raised)
            return None
        return self.block(stmt.finalbody, out)
