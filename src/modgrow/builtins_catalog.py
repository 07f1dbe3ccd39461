"""Signatures for the pre-defined module catalogue.

These are the modules available before any learning happens: object
localization, counting, crops, question answering, region filtering, image
edits and output formatting. Implementations live in the executor; this
module only declares names, parameters and usage examples so the registry
can render them into prompts.
"""

from __future__ import annotations

from .dsl import ModuleSignature


def _sig(name, params, returns, doc, examples=()):
    return ModuleSignature(
        name=name,
        params=tuple(params),
        returns=returns,
        doc=doc,
        usage_examples=tuple(examples),
    )


BUILTIN_SIGNATURES: tuple[ModuleSignature, ...] = (
    _sig(
        "LOC",
        [("image", "image"), ("object", "text")],
        "box-list",
        "Generate boxes of the object on the image.",
        ["BOX0=LOC(image=IMAGE,object='camel')"],
    ),
    _sig(
        "COUNT",
        [("box", "box-list")],
        "number",
        "Count the number of boxes in the list.",
        ["ANSWER0=COUNT(box=BOX1)"],
    ),
    _sig(
        "CROP",
        [("image", "image"), ("box", "box-list")],
        "image",
        "Crop the image to the first box, expanded for context.",
        ["IMAGE0=CROP(image=IMAGE,box=BOX0)"],
    ),
    _sig(
        "CROP_LEFTOF",
        [("image", "image"), ("box", "box-list")],
        "image",
        "Crop the image region left of the first box center.",
        ["IMAGE0=CROP_LEFTOF(image=IMAGE,box=BOX0)"],
    ),
    _sig(
        "CROP_RIGHTOF",
        [("image", "image"), ("box", "box-list")],
        "image",
        "Crop the image region right of the first box center.",
        ["IMAGE0=CROP_RIGHTOF(image=IMAGE,box=BOX0)"],
    ),
    _sig(
        "CROP_ABOVE",
        [("image", "image"), ("box", "box-list")],
        "image",
        "Crop the image region above the first box center.",
        ["IMAGE0=CROP_ABOVE(image=IMAGE,box=BOX0)"],
    ),
    _sig(
        "CROP_BELOW",
        [("image", "image"), ("box", "box-list")],
        "image",
        "Crop the image region below the first box center.",
        ["IMAGE0=CROP_BELOW(image=IMAGE,box=BOX0)"],
    ),
    _sig(
        "VQA",
        [("image", "image"), ("question", "text")],
        "text",
        "Answer a simple question about the image.",
        ["ANSWER0=VQA(image=IMAGE0,question='Who is carrying the umbrella?')"],
    ),
    _sig(
        "EVAL",
        [("expr", "template")],
        "text",
        "Evaluate an expression template over bound variables.",
        ["ANSWER1=EVAL(expr=f\"'yes' if {ANSWER0} > 0 else 'no'\")"],
    ),
    _sig(
        "RESULT",
        [("var", "text")],
        "text",
        "Return the named variable as the final result.",
        ["FINAL_RESULT=RESULT(var=ANSWER0)"],
    ),
    _sig(
        "SELECT",
        [("image", "image"), ("box", "box-list"), ("query", "text")],
        "box-list",
        "Keep the boxes whose content matches the query best.",
        ["BOX1=SELECT(image=IMAGE,box=BOX0,query='red cup')"],
    ),
    _sig(
        "FILTER_PROPERTY",
        [("image", "image"), ("box", "box-list"), ("property", "text")],
        "box-list",
        "Keep the boxes whose content clearly shows the property.",
        ["BOX1=FILTER_PROPERTY(image=IMAGE,box=BOX0,property='red')"],
    ),
    _sig(
        "FILTER_SPATIAL",
        [("image", "image"), ("box", "box-list"), ("location", "text")],
        "box-list",
        "Keep the boxes whose center lies in the named half of the image.",
        ["BOX1=FILTER_SPATIAL(image=IMAGE,box=BOX0,location='left')"],
    ),
    _sig(
        "REPLACE",
        [("image", "image"), ("mask", "box-list"), ("prompt", "text")],
        "image",
        "Replace the masked region according to the prompt.",
        ["IMAGE0=REPLACE(image=IMAGE,mask=MASK0,prompt='a cat')"],
    ),
    _sig(
        "COLORPOP",
        [("image", "image"), ("mask", "box-list")],
        "image",
        "Keep color in the masked region and gray out the rest.",
        ["IMAGE0=COLORPOP(image=IMAGE,mask=MASK0)"],
    ),
    _sig(
        "BGBLUR",
        [("image", "image"), ("mask", "box-list")],
        "image",
        "Blur the background outside the masked region.",
        ["IMAGE0=BGBLUR(image=IMAGE,mask=MASK0)"],
    ),
    _sig(
        "TAG",
        [("image", "image"), ("box", "box-list"), ("label", "text")],
        "image",
        "Annotate each box region with the label.",
        ["IMAGE0=TAG(image=IMAGE,box=BOX0,label='Ada Lovelace')"],
    ),
    _sig(
        "EMOJI",
        [("image", "image"), ("box", "box-list"), ("emoji", "text")],
        "image",
        "Overlay the named emoji on each box region.",
        ["IMAGE0=EMOJI(image=IMAGE,box=BOX0,emoji='smiling_face')"],
    ),
    _sig(
        "FACEDET",
        [("image", "image")],
        "box-list",
        "Detect faces on the image.",
        ["BOX0=FACEDET(image=IMAGE)"],
    ),
    _sig(
        "LIST",
        [("query", "text"), ("max", "number")],
        "list",
        "Retrieve a short list of factual answers for the query.",
        ["ANSWER0=LIST(query='Name 3 kinds of fruit.',max=3)"],
    ),
    _sig(
        "BOX2MASK",
        [("box", "box-list")],
        "box-list",
        "Treat the bounding boxes as a mask region set.",
        ["MASK0=BOX2MASK(box=BOX0)"],
    ),
    _sig(
        "MASK2BOX",
        [("mask", "box-list")],
        "box-list",
        "Convert a mask region set back into bounding boxes.",
        ["BOX0=MASK2BOX(mask=MASK0)"],
    ),
)
