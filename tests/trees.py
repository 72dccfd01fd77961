"""Walks over build trees that hand each node inside a loop its head.

A back node evaluates to the target of its loop's body, shifted by the
shifts met from wherever the evaluation starts down to it.  So the head
a loop hands down, that target built at shift 0, lets any node inside
the loop be evaluated on its own, in its own degrees, and checked like
a node outside one.
"""


def loop_head(loop):
    """The head evaluate hands the back node below a loop node."""
    return loop.children[0].children[1].evaluate(), 0


def nodes_with_heads(tree):
    """Every node of the tree with the head of the innermost loop above
    it, or None outside a loop."""
    stack = [(tree, None)]
    while stack:
        node, head = stack.pop()
        yield node, head
        if node.kind == "loop":
            head = loop_head(node)
        stack.extend((child, head) for child in node.children)


def head_at(tree, path):
    """The head for the node at path: that of the innermost loop above it."""
    head = None
    for i in path:
        if tree.kind == "loop":
            head = loop_head(tree)
        tree = tree.children[i]
    return head
