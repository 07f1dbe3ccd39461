"""Executable fixture modules and their independent oracles.

These sources play two roles: canned code-generation responses for replay
runs, and subjects of the fixture-vs-oracle agreement tests. Each
FIXTURE_SOURCES entry must load cleanly in the sandbox; each oracle
recomputes the same answer straight from scene ground truth without
touching the sandbox or the backend.

`median_depth_oracle`, which ranks boxes by depth for SORT_SPATIAL gold
answers, does not visit pixels: it cuts a box into cells along the object
edges, gives each cell the smallest depth of the objects that cover it, and
takes the median from the cells' (depth, pixel count) pairs. A minimum over
objects, not painted layers, keeps it independent of `scene.DepthGrid`,
which serves the backend's depth maps.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from .dsl import ModuleSignature, parse_signature_block
from .scene import SceneGraph, half_box

CHOOSE_ATTRIBUTE_SOURCE = '''class CHOOSE_ATTRIBUTE():
    """
    Decide which of two candidate attributes describes the object region.
    Input:
        image: an image object
        box: a list of bounding boxes
        object: a string
        attribute1: a string
        attribute2: a string
    Output:
        result: a string
    Examples:
        Question: Is the coat thick or thin?
        BOX0=LOC(image=IMAGE,object='coat')
        ANSWER0=CHOOSE_ATTRIBUTE(image=IMAGE,box=BOX0,object='coat',attribute1='thick',attribute2='thin')
        FINAL_RESULT=RESULT(var=ANSWER0)
    """
    step_name = 'CHOOSE_ATTRIBUTE'

    def __init__(self):
        print(f'Registering {self.step_name} step')

    def expand_box(self,box,img_size,factor=1.5):
        W,H = img_size
        x1,y1,x2,y2 = box
        dw = int(factor*(x2-x1)/2)
        dh = int(factor*(y2-y1)/2)
        cx = int((x1 + x2) / 2)
        cy = int((y1 + y2) / 2)
        x1 = max(0,cx - dw)
        x2 = min(cx + dw,W)
        y1 = max(0,cy - dh)
        y2 = min(cy + dh,H)
        return [x1,y1,x2,y2]

    def predict(self,img,boxes,obj,attr1,attr2):
        if len(boxes) > 0:
            box = boxes[0]
            box = self.expand_box(box, img.size)
            out_img = img.crop(box)
        else:
            out_img = img
        prompt1 = f'Tell me the attributes when the {obj} is {attr1} in one sentence.'
        prompt2 = f'Tell me the attributes when the {obj} is {attr2} in one sentence.'
        obj_desc1 = API.gpt3(prompt1, 'gpt3_general')
        obj_desc2 = API.gpt3(prompt2, 'gpt3_general')
        result1 = API.clip(out_img,obj_desc1)
        result2 = API.clip(out_img,obj_desc2)
        if result1 > result2:
            result = attr1
        else:
            result = attr2
        return result

    def execute(self,img,boxes,obj,attr1,attr2):
        result = self.predict(img,boxes,obj,attr1,attr2)
        return result
'''

COMPARE_COLOR_SOURCE = '''class COMPARE_COLOR():
    """
    Tell whether two object regions have the same or different colors.
    Input:
        image: an image object
        box1: a list of bounding boxes
        box2: a list of bounding boxes
        object1: a string
        object2: a string
        compare_type: a string
    Output:
        result: a string
    """
    step_name = 'COMPARE_COLOR'

    def expand_box(self,box,img_size,factor=1.5):
        W,H = img_size
        x1,y1,x2,y2 = box
        dw = int(factor*(x2-x1)/2)
        dh = int(factor*(y2-y1)/2)
        cx = int((x1 + x2) / 2)
        cy = int((y1 + y2) / 2)
        x1 = max(0,cx - dw)
        x2 = min(cx + dw,W)
        y1 = max(0,cy - dh)
        y2 = min(cy + dh,H)
        return [x1,y1,x2,y2]

    def predict(self,img,boxes1,boxes2,obj1,obj2,compare_type):
        if len(boxes1) > 0:
            box1 = boxes1[0]
            box1 = self.expand_box(box1,img.size)
            out_img1 = img.crop(box1)
        else:
            out_img1 = img
        if len(boxes2) > 0:
            box2 = boxes2[0]
            box2 = self.expand_box(box2,img.size)
            out_img2 = img.crop(box2)
        else:
            out_img2 = img
        color1 = API.vqa(out_img1, f'What color is the {obj1}?')
        color2 = API.vqa(out_img2, f'What color is the {obj2}?')
        prompt = f'Can the {color1} be regarded as the same color as {color2}? You should just reply yes or no without any other words.'
        temp = API.gpt3(prompt, 'gpt3_general')
        if 'same' == compare_type:
            if 'yes' in temp.lower():
                result = 'yes'
            elif 'no' in temp.lower():
                result = 'no'
        elif 'different' == compare_type:
            if 'yes' in temp.lower():
                result = 'no'
            elif 'no' in temp.lower():
                result = 'yes'
        else:
            if 'yes' in temp.lower():
                result = 'yes'
            elif 'no' in temp.lower():
                result = 'no'
        return result

    def execute(self,img,boxes1,boxes2,obj1,obj2,compare_type):
        result = self.predict(img,boxes1,boxes2,obj1,obj2,compare_type)
        return result
'''

SORT_SPATIAL_SOURCE = '''class SORT_SPATIAL():
    """
    Select objects from the image that match the spatial location.
    Objects are represented by the bounding boxes.
    Returns the bounding boxes that satisfy the condition.
    Input:
        image: an image object
        box_list: a list of unormalized bounding boxes
        location: the location can only be left, middle, right, top, bottom, front and behind
        index: a number for the rank of the object
    Output:
        box: a bounding box
    Examples:
        Question: second sandwich from the right on the bottom
        BOXLIST0=LOC(image=IMAGE,object='sandwich')
        BOXLIST1=SORT_SPATIAL(image=IMAGE,box_list=BOXLIST0,location='right',index=2)
        BOXLIST2=SORT_SPATIAL(image=IMAGE,box_list=BOXLIST1,location='bottom',index=1)
        FINAL_RESULT=RESULT(var=BOXLIST2)
    """
    step_name = 'SORT_SPATIAL'

    def predict(self,img,box_list,location,index):
        if index < 0 or index > len(box_list):
            return []
        if index == 0:
            return [box_list[0]]
        if "front" in location or "behind" in location:
            box_depth_list = self.parse_depth(img, box_list)
            box_list_sorted = sorted(box_depth_list, key=lambda x: x[1])
            out_box_list = [box_i[0] for box_i in box_list_sorted]
            if "behind" in location:
                out_box_list.reverse()
            return [out_box_list[index-1]]
        if "left" in location:
            box_list = sorted(box_list, key=lambda x: x[0])
        elif "right" in location:
            box_list = sorted(box_list, key=lambda x: x[2], reverse=True)
        elif "top" in location:
            box_list = sorted(box_list, key=lambda x: x[1])
        elif "bottom" in location:
            box_list = sorted(box_list, key=lambda x: x[3], reverse=True)
        elif "middle" in location:
            w, h = img.size
            box_list = sorted(box_list, key=lambda x: abs((x[0] + x[2]) / 2 - w / 2))
        else:
            return []
        if index > len(box_list):
            return []
        out_box_list = [box_list[index-1]]
        return out_box_list

    def check_location(self,img,box,location):
        w, h = img.size
        x1, y1, x2, y2 = box
        cx = (x1 + x2) / 2
        cy = (y1 + y2) / 2
        if 'left' in location:
            if cx > w / 2:
                return False
        elif 'right' in location:
            if cx < w / 2:
                return False
        if 'top' in location:
            if cy > h / 2:
                return False
        elif 'bottom' in location:
            if cy < h / 2:
                return False
        return True

    def parse_depth(self,img,box_list):
        box_depth_list = []
        depth_map = API.depth(img)
        for box in box_list:
            avg_depth = median(depth_map.region(box))
            box_depth_list.append((box, avg_depth))
        return box_depth_list

    def execute(self,img,box_list,location,index):
        return self.predict(img,box_list,location,index)
'''

DETECT_SHAPE_SOURCE = '''class DETECT_SHAPE():
    """
    Read the shape, color and size of the single object in a puzzle panel.
    Input:
        image: an image object or a list of image objects
    Output:
        record: a list of attribute name and value pairs per panel
    Examples:
        ATTRS0=DETECT_SHAPE(image=PANELS)
    """
    step_name = 'DETECT_SHAPE'

    def read_panel(self,img):
        count = API.vqa(img, 'How many objects are in the image?')
        if count == '0':
            return []
        if count != '1':
            raise ValueError('MULTI_OBJECT: expected one centered object, found ' + count)
        record = []
        for key in ['shape', 'color', 'size']:
            record.append([key, API.vqa(img, 'What ' + key + ' is the object?')])
        return record

    def execute(self,image):
        if isinstance(image, list):
            return [self.read_panel(img) for img in image]
        return self.read_panel(image)
'''

SOLVER_SOURCE = '''class SOLVER():
    """
    Pick the candidate completing the three-by-three attribute matrix.
    Input:
        panel_attributes: a list of attribute records for the eight given panels
        candidate_attributes: a list of attribute records for the eight candidates
    Output:
        answer: a number, the one-based index of the best candidate
    Examples:
        ANSWER0=SOLVER(panel_attributes=ATTRS0,candidate_attributes=ATTRS1)
    """
    step_name = 'SOLVER'

    SCALES = {
        'shape': ['triangle', 'square', 'pentagon', 'hexagon', 'circle'],
        'color': ['red', 'orange', 'yellow', 'green', 'blue', 'purple'],
        'size': ['small', 'medium', 'large'],
    }

    def scale_for(self,key):
        for name in self.SCALES:
            if key == name or key.endswith('_' + name):
                return self.SCALES[name]
        return None

    def expected_value(self,rows,key):
        r1 = [rows[0][c].get(key) for c in range(3)]
        r2 = [rows[1][c].get(key) for c in range(3)]
        r3 = [rows[2][c].get(key) for c in range(2)]
        if r1[0] == r1[1] == r1[2] and r2[0] == r2[1] == r2[2] and r3[0] == r3[1]:
            return r3[0]
        scale = self.scale_for(key)
        if scale is not None and all(v in scale for v in r1 + r2 + r3):
            def steps_up(row):
                return (scale.index(row[1]) - scale.index(row[0]) == 1
                        and scale.index(row[2]) - scale.index(row[1]) == 1)
            if steps_up(r1) and steps_up(r2):
                i0, i1 = scale.index(r3[0]), scale.index(r3[1])
                if i1 - i0 == 1 and i1 + 1 < len(scale):
                    return scale[i1 + 1]
        s1 = set(r1)
        if len(s1) == 3 and s1 == set(r2) and len(set(r3)) == 2 and set(r3) < s1:
            rest = s1 - set(r3)
            return sorted(rest)[0]
        return None

    def execute(self,panel_attributes,candidate_attributes):
        rows = [
            [dict(panel_attributes[0]), dict(panel_attributes[1]), dict(panel_attributes[2])],
            [dict(panel_attributes[3]), dict(panel_attributes[4]), dict(panel_attributes[5])],
            [dict(panel_attributes[6]), dict(panel_attributes[7]), {}],
        ]
        keys = []
        for record in panel_attributes:
            for key, value in record:
                if key not in keys:
                    keys.append(key)
        expected = {}
        for key in keys:
            value = self.expected_value(rows, key)
            if value is not None:
                expected[key] = value
        best_index = 0
        best_violations = None
        for i, record in enumerate(candidate_attributes):
            cand = dict(record)
            violations = 0
            for key, value in expected.items():
                if cand.get(key) != value:
                    violations += 1
            if best_violations is None or violations < best_violations:
                best_violations = violations
                best_index = i
        return best_index + 1
'''

INDUCE_WORD_SOURCE = '''class INDUCE_WORD():
    """
    Learn which novel word names each attribute value from example pairs and
    apply the binding to the query image.
    Input:
        examples: a list of image and word pairs
        query: an image object
    Output:
        result: a string
    Examples:
        ANSWER0=INDUCE_WORD(examples=EXAMPLES,query=QUERY)
    """
    step_name = 'INDUCE_WORD'

    KEYS = ['shape', 'color', 'material']

    def read_value(self,img,key):
        return API.vqa(img, 'What ' + key + ' is the object?')

    def execute(self,examples,query):
        for key in self.KEYS:
            value_to_word = {}
            word_to_value = {}
            consistent = True
            for img, word in examples:
                value = self.read_value(img, key)
                if value_to_word.get(value, word) != word:
                    consistent = False
                    break
                if word_to_value.get(word, value) != value:
                    consistent = False
                    break
                value_to_word[value] = word
                word_to_value[word] = value
            if consistent and len(value_to_word) >= 2:
                query_value = self.read_value(query, key)
                if query_value in value_to_word:
                    return value_to_word[query_value]
        return 'unknown'
'''

VERIFY_MATERIAL_SOURCE = '''class VERIFY_MATERIAL():
    """
    Check whether the object in the region is made of the material.
    Input:
        image: an image object
        box: a list of bounding boxes
        material: a string
        object: a string
        question: a string
    Output:
        flag: True if the material matches else False
    Examples:
        Question: Is the knife made of ceramic?
        BOX0=LOC(image=IMAGE,object='knife')
        ANSWER0=VERIFY_MATERIAL(image=IMAGE,box=BOX0,material='ceramic',object='knife',question=QUESTION)
        ANSWER1=EVAL(expr=f"'yes' if {ANSWER0} else 'no'")
        FINAL_RESULT=RESULT(var=ANSWER1)
    """
    step_name = 'VERIFY_MATERIAL'

    def execute(self,img,boxes,material,obj,question):
        if len(boxes) > 0:
            x1, y1, x2, y2 = boxes[0]
            w, h = img.size
            dw = int(1.5 * (x2 - x1) / 2)
            dh = int(1.5 * (y2 - y1) / 2)
            cx, cy = int((x1 + x2) / 2), int((y1 + y2) / 2)
            out_img = img.crop([max(0, cx - dw), max(0, cy - dh), min(cx + dw, w), min(cy + dh, h)])
        else:
            out_img = img
        found = API.vqa(out_img, f'What material is the {obj}?')
        return found.lower() == material.lower()
'''

FIXTURE_SOURCES: dict[str, str] = {
    "CHOOSE_ATTRIBUTE": CHOOSE_ATTRIBUTE_SOURCE,
    "COMPARE_COLOR": COMPARE_COLOR_SOURCE,
    "SORT_SPATIAL": SORT_SPATIAL_SOURCE,
    "DETECT_SHAPE": DETECT_SHAPE_SOURCE,
    "SOLVER": SOLVER_SOURCE,
    "INDUCE_WORD": INDUCE_WORD_SOURCE,
    "VERIFY_MATERIAL": VERIFY_MATERIAL_SOURCE,
}


def fixture_signature(name: str) -> ModuleSignature:
    return parse_signature_block(FIXTURE_SOURCES[name])


def fixture_header(name: str) -> str:
    """The class line plus docstring of a fixture, as a stage-1 proposal header."""
    source = FIXTURE_SOURCES[name]
    close = source.index('"""', source.index('"""') + 3)
    return source[: close + 3]


# ---------------------------------------------------------------------------
# Independent oracles (pure scene-graph procedures, no backend, no sandbox)
# ---------------------------------------------------------------------------


def median_depth_oracle(scene: SceneGraph, box) -> float:
    """The median depth of the pixels of `box`, clipped to the scene.

    A pixel (x, y) lies in an object when x1 <= x < x2 and y1 <= y < y2 for
    the object's box, and takes the smallest depth below 1.0 among the
    objects it lies in, else 1.0 (background). Rather than visit each
    pixel, the oracle cuts the clipped box into cells along the object
    edges: every pixel of a cell lies in the same objects, so a cell takes
    one depth for all its pixels. The median then comes from the sorted
    (depth, pixel count) pairs by the rule `statistics.median` applies to
    the pixel values: the middle value, or the mean of the two middle
    values. An empty box has median 1.0.

    This is a minimum over the objects, not the painter's order of
    `scene.DepthGrid`, so it stays an independent check of the backend's
    depth maps.
    """
    x1, y1 = max(0, int(box[0])), max(0, int(box[1]))
    x2, y2 = min(scene.width, int(box[2])), min(scene.height, int(box[3]))
    if x1 >= x2 or y1 >= y2:
        return 1.0
    # each object that can set a depth, as the pixel span it covers in the
    # box: pixel x lies in [ox1, ox2) exactly when ceil(ox1) <= x < ceil(ox2),
    # and an edge clamped into the box first stays finite
    spans = []
    for obj in scene.objects:
        if not obj.depth < 1.0:
            continue
        ox1, oy1, ox2, oy2 = obj.box
        left, right = math.ceil(min(max(ox1, x1), x2)), math.ceil(min(max(ox2, x1), x2))
        top, bottom = math.ceil(min(max(oy1, y1), y2)), math.ceil(min(max(oy2, y1), y2))
        if left < right and top < bottom:
            spans.append((left, top, right, bottom, obj.depth))
    cells = []  # (depth, pixel count)
    rows = sorted({y1, y2}.union(*((s[1], s[3]) for s in spans)))
    for top, bottom in zip(rows, rows[1:]):
        band = [s for s in spans if s[1] <= top and bottom <= s[3]]
        cols = sorted({x1, x2}.union(*((s[0], s[2]) for s in band)))
        for left, right in zip(cols, cols[1:]):
            depth = 1.0
            for s in band:
                if s[0] <= left and right <= s[2] and s[4] < depth:
                    depth = s[4]
            cells.append((depth, (right - left) * (bottom - top)))
    cells.sort(key=itemgetter(0))
    n = (x2 - x1) * (y2 - y1)

    def nth(k: int):
        for depth, count in cells:
            if k < count:
                return depth
            k -= count

    if n % 2:
        return nth(n // 2)
    return (nth(n // 2 - 1) + nth(n // 2)) / 2


def sort_spatial_oracle(scene: SceneGraph, boxes, location: str, index: int):
    boxes = [tuple(b) for b in boxes]
    if index < 0 or index > len(boxes):
        return []
    if index == 0:
        return [list(boxes[0])]
    if "front" in location or "behind" in location:
        ranked = sorted(boxes, key=lambda b: median_depth_oracle(scene, b))
        if "behind" in location:
            ranked.reverse()
    elif "left" in location:
        ranked = sorted(boxes, key=lambda b: b[0])
    elif "right" in location:
        ranked = sorted(boxes, key=lambda b: b[2], reverse=True)
    elif "top" in location:
        ranked = sorted(boxes, key=lambda b: b[1])
    elif "bottom" in location:
        ranked = sorted(boxes, key=lambda b: b[3], reverse=True)
    elif "middle" in location:
        ranked = sorted(boxes, key=lambda b: abs((b[0] + b[2]) / 2 - scene.width / 2))
    else:
        return []
    if index > len(ranked):
        return []
    return [list(ranked[index - 1])]


# The attribute scales of raven puzzles, in the order the generator draws
# them. The SOLVER fixture keeps its own copy, since it is candidate source.
RAVEN_SCALES = {
    "shape": ["triangle", "square", "pentagon", "hexagon", "circle"],
    "color": ["red", "orange", "yellow", "green", "blue", "purple"],
    "size": ["small", "medium", "large"],
}


# The regions of a raven panel in each layout: the whole panel, or one image
# half per object, named by the half. Record keys of a half carry its name.
RAVEN_LAYOUTS = {
    "center": (None,),
    "left-right": ("left", "right"),
    "up-down": ("top", "bottom"),
}


@lru_cache(maxsize=64)
def raven_regions(layout: str, width: int, height: int) -> tuple[tuple[str, tuple], ...]:
    """(record key prefix, box) of each region of a width x height panel.

    Kept per (layout, size), since every panel of a puzzle has the same
    size: the result is a tuple of strings and int tuples, so callers can
    share it."""
    return tuple(
        ("", (0, 0, width, height)) if half is None else (f"{half}_", half_box(width, height, half))
        for half in RAVEN_LAYOUTS[layout]
    )


def _scale_for_key(key: str):
    for name, scale in RAVEN_SCALES.items():
        if key == name or key.endswith("_" + name):
            return scale
    return None


def _last_cell_fits(cells: list, scale) -> set:
    """The values of the last cell that make every row of one attribute a
    constant, a progression on `scale` or a distribute-three row, given
    the first eight cells in row order."""
    row1, row2, (left, middle) = cells[0:3], cells[3:6], cells[6:8]
    fits = set()
    if row1[0] == row1[1] == row1[2] and row2[0] == row2[1] == row2[2] and left == middle:
        fits.add(middle)
    if scale is not None and all(v in scale for v in cells):
        def steps_up(row) -> bool:
            return all(scale.index(b) - scale.index(a) == 1 for a, b in zip(row, row[1:]))

        if steps_up(row1) and steps_up(row2) and steps_up((left, middle)) and middle != scale[-1]:
            fits.add(scale[scale.index(middle) + 1])
    values = set(row1)
    rest = values - {left, middle}
    if len(values) == 3 and set(row2) == values and len(rest) == 1:
        fits |= rest
    return fits


def solver_check(panel_records):
    """A counter of the attribute keys a candidate for the empty cell leaves
    without any coherent full-grid rule.

    A key of the eight panel records holds when all three rows, the
    candidate completing the last, are constant, or step up the key's scale
    (its name or its ``_name`` suffix picks the scale), or each use the same
    three distinct values. Only the last cell differs between candidates,
    and the two complete rows and the two cells left of the empty one admit
    at most one last value per rule: the cell to its left, the next step on
    the scale, or the one value of the first row not yet used. So those
    values are found once per key here, and the counter returned scores a
    candidate record by set membership, with the same count as placing it
    in the grid and checking every row again. This verifies rules over the
    completed rows, a different procedure from the induce-then-predict
    fixture, which commits to the first rule it reads and predicts one
    value.
    """
    panels = [dict(r) for r in panel_records]
    keys = dict.fromkeys(key for panel in panels for key in panel)
    fits = [
        (key, _last_cell_fits([panels[i].get(key) for i in range(8)], _scale_for_key(key)))
        for key in keys
    ]

    def violations(candidate_record) -> int:
        candidate = dict(candidate_record)
        return sum(1 for key, values in fits if candidate.get(key) not in values)

    return violations


def solver_oracle(panel_records, candidate_records) -> int:
    violations = solver_check(panel_records)
    scores = [violations(c) for c in candidate_records]
    return scores.index(min(scores)) + 1


def induce_word_oracle(example_records, query_record) -> str:
    """example_records: (attribute dict, word) pairs; query_record: attribute dict."""
    for key in ("shape", "color", "material"):
        value_to_word: dict[str, str] = {}
        word_to_value: dict[str, str] = {}
        consistent = True
        for attrs, word in example_records:
            value = attrs.get(key, "unknown")
            if value_to_word.get(value, word) != word or word_to_value.get(word, value) != value:
                consistent = False
                break
            value_to_word[value] = word
            word_to_value[word] = value
        if consistent and len(value_to_word) >= 2:
            value = query_record.get(key, "unknown")
            if value in value_to_word:
                return value_to_word[value]
    return "unknown"
